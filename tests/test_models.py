"""One shared LatticeModel per value, its kept constants, and the K
verdict kept on each canonical class."""

import argparse
from fractions import Fraction
from functools import lru_cache

import pytest

from latwist import cli, lattice
from latwist.classexpr import model_from_json, parse_class, parse_form
from latwist.cone import enumerate_exceptional, in_cone, is_lagrangian_spherical
from latwist.decompose import IsometryMatrix, decompose_K, decompose_K_alpha
from latwist.lattice import RATIONAL, RULED, FormClass, LatticeModel, pairing, reflection_matrix
from latwist.reduction import cremona_reduce, is_exceptional, is_K_null_spherical


def R(n):
    return LatticeModel.rational(n)


@pytest.fixture
def fresh_models(monkeypatch):
    # an empty intern table of the package's size, restored afterwards, so
    # a test can fill or probe it without evicting other tests' models
    shared = lattice._shared_model
    table = lru_cache(maxsize=shared.cache_parameters()["maxsize"])(shared.__wrapped__)
    monkeypatch.setattr(lattice, "_shared_model", table)
    return table


def test_every_model_entry_returns_the_shared_instance():
    m = R(4)
    assert LatticeModel.rational(4) is m
    assert cli.parse_model_spec("rational:4") is m
    assert model_from_json({"type": "rational", "n": 4}) is m
    mr = LatticeModel.ruled(2, 3)
    assert LatticeModel.ruled(2, 3) is mr
    assert cli.parse_model_spec("ruled:h=2,n=3") is mr
    assert model_from_json({"type": "ruled", "genus": 2, "n": 3}) is mr
    assert mr is not LatticeModel.ruled(3, 2)


def test_model_keeps_its_constants():
    for m in (R(5), LatticeModel.ruled(1, 2)):
        assert m.k0_form() is m.k0_form()
        assert m.k0_form().num == m.k0().coeffs
        assert m._classes is m._classes
        assert m._basis_index == {name: i for i, name in enumerate(m.basis_names)}
    assert (R(5).rank, R(5).e_offset) == (6, 1)
    assert (LatticeModel.ruled(1, 2).rank, LatticeModel.ruled(1, 2).e_offset) == (4, 2)


def test_warm_classify_builds_no_model_and_no_form(monkeypatch):
    argv = ["classify", "--model", "rational:6", "--output", "json", "--", "3H-2E1-E2-E3-E4-E5-E6"]

    def library_query():
        model = LatticeModel.rational(6)
        x = parse_class("3H-2E1-E2-E3-E4-E5-E6", model)
        k0 = model.k0_form()
        return is_exceptional(x, k0), is_K_null_spherical(x, k0), cremona_reduce(x).kind

    assert cli.main(argv) == 0
    first = library_query()
    built = []
    model_init, from_num, form_init = LatticeModel.__init__, FormClass._from_num, FormClass.__init__

    def counted_model_init(self, *args):
        model_init(self, *args)
        built.append(("model", self))

    def counted_from_num(cls, model, num, den):
        built.append(("form", num))
        return from_num(model, num, den)

    def counted_form_init(self, model, coeffs):
        built.append(("form", coeffs))
        form_init(self, model, coeffs)

    monkeypatch.setattr(LatticeModel, "__init__", counted_model_init)
    monkeypatch.setattr(FormClass, "_from_num", classmethod(counted_from_num))
    monkeypatch.setattr(FormClass, "__init__", counted_form_init)
    assert cli.main(argv) == 0
    assert library_query() == first
    assert built == []
    # the counters see a build: a new model and its K form
    LatticeModel(RATIONAL, 6).k0_form()
    assert [kind for kind, _ in built] == ["model", "form"]


def test_a_directly_built_model_passes_every_layer():
    direct, shared = LatticeModel(RATIONAL, 3), R(3)
    assert direct is not shared and direct == shared and hash(direct) == hash(shared)
    # classify, on its own K and on the shared model's K
    for text in ("E1", "2H-E1-E2-E3", "H-E1-E2-E3", "E1-E2", "H"):
        x = parse_class(text, direct)
        for K in (None, direct.k0_form(), shared.k0_form()):
            assert is_exceptional(x, K) == is_exceptional(parse_class(text, shared))
            assert is_K_null_spherical(x, K) == is_K_null_spherical(parse_class(text, shared))
        assert cremona_reduce(x).kind == cremona_reduce(parse_class(text, shared)).kind
    args = argparse.Namespace(model=direct, cls="2H-E1-E2-E3")
    assert cli.cmd_classify(args) == cli.cmd_classify(argparse.Namespace(model=shared, cls="2H-E1-E2-E3"))
    # cone
    tau = parse_form("3H-E1-E2-E3", direct)
    assert in_cone(tau) and in_cone(tau, shared.k0_form())
    assert is_lagrangian_spherical(parse_class("E1-E2", shared), tau)
    assert enumerate_exceptional(direct).classes == enumerate_exceptional(shared).classes
    # decompose
    M = IsometryMatrix(direct, reflection_matrix(parse_class("E1-E2", shared)))
    assert decompose_K(M).matrix == M.entries
    assert decompose_K_alpha(M, -shared.k0_form()).matrix == M.entries


def test_models_stay_equal_past_the_intern_bound(fresh_models):
    m = R(3)
    x = m.E(1)
    for n in range(100, 165):
        R(n)
    assert fresh_models.cache_info().currsize == 64
    # R(3) was evicted: a new instance, equal by value to the old one
    again = R(3)
    assert again is not m and again is R(3)
    assert again == m and hash(again) == hash(m)
    assert pairing(x, again.E(1)) == -1
    assert is_exceptional(x, again.k0_form())
    assert in_cone(parse_form("3H-E1-E2-E3", again), m.k0_form())


@pytest.mark.parametrize(
    "build",
    [
        lambda: LatticeModel.rational(2.5),
        lambda: LatticeModel.rational(2.0),
        lambda: LatticeModel.rational(True),
        lambda: LatticeModel.rational("3"),
        lambda: LatticeModel.ruled(1.5, 2),
        lambda: LatticeModel.ruled(True, 2),
        lambda: LatticeModel.ruled(1, 2.0),
        lambda: LatticeModel(RATIONAL, 2.5),
        lambda: LatticeModel(RULED, 2, 1.0),
        lambda: LatticeModel(RATIONAL, False),
    ],
)
def test_model_sizes_must_be_integers(build):
    with pytest.raises(TypeError, match="must be an integer"):
        build()


def test_a_rejected_size_leaves_the_intern_table_alone(fresh_models):
    for bad in (True, 1.0):
        with pytest.raises(TypeError):
            LatticeModel.rational(bad)
    assert fresh_models.cache_info().currsize == 0
    m = R(1)
    assert type(m.n) is int and m.rank == 2
    with pytest.raises(TypeError):
        LatticeModel.rational(True)
    assert R(1) is m


def _routines(model, K):
    x = model.E(1)
    tau = parse_form("3H-E1-E2-E3", model) if model.kind == RATIONAL else -model.k0_form()
    return [
        lambda: is_exceptional(x, K),
        lambda: is_K_null_spherical(x, K),
        lambda: in_cone(tau, K),
        lambda: enumerate_exceptional(model, K),
    ]


@pytest.mark.parametrize(
    "model, num, message",
    [
        (3, (-3, Fraction(1, 2), 1, 1), "K must be K_0 or a K_delta variant"),
        (3, (-3, 2, 1, 1), "K must be K_0 or a K_delta variant"),
        (3, (-3, 1, 0, 1), "K must be K_0 or a K_delta variant"),
        ((1, 2), (2, 0, -1, -1), "conjugate to K_0 first"),
    ],
)
def test_an_invalid_k_raises_on_every_call(model, num, message):
    m = R(model) if isinstance(model, int) else LatticeModel.ruled(*model)
    K = FormClass(m, num)
    for _ in range(2):
        for call in _routines(m, K):
            with pytest.raises(ValueError, match=message):
                call()
    assert "_k0_signs" not in vars(K)


def test_a_kept_k_verdict_still_checks_the_model():
    for K in (R(4).k0_form(), FormClass(R(4), (-3, 1, -1, 1, -1))):
        assert is_exceptional(R(4).E(1), K) == (K.num[1] == 1)
        assert vars(K)["_k0_signs"] == K.num[1:]
        for other in (R(3), LatticeModel.ruled(1, 3)):
            for call in _routines(other, K):
                with pytest.raises(ValueError, match="incompatible lattice models"):
                    call()
        # the kept verdict is outside the fields
        assert K == FormClass(R(4), K.num) and hash(K) == hash(FormClass(R(4), K.num))
