"""Brute-force enumeration and cross-check oracles."""

import gc
import itertools

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from latwist import oracle
from latwist.classexpr import parse_class
from latwist.cone import enumerate_exceptional, is_lagrangian_spherical
from latwist.lattice import RATIONAL, FormClass, HomClass, LatticeModel, form_pairing, is_characteristic, pairing
from latwist.oracle import (
    EnumQuery,
    bfs_is_exceptional,
    bfs_is_knull_spherical,
    crosscheck,
    enumerate_classes,
)
from latwist.reduction import is_K_null_spherical, is_exceptional
from spies import count_form_pairing


def R(n):
    return LatticeModel.rational(n)


def texts(model, classes):
    return {tuple(x.coeffs) for x in classes}


def test_query_validation():
    with pytest.raises(ValueError, match="positive"):
        EnumQuery(R(2), 0)
    with pytest.raises(TypeError, match="integer"):
        EnumQuery(R(2), True)
    with pytest.raises(ValueError, match="unknown predicate"):
        EnumQuery(R(2), 2, predicate="binary")
    with pytest.raises(ValueError, match="conflicts"):
        EnumQuery(R(2), 2, square=-2, predicate="exceptional")
    # matching explicit constraints are allowed
    q = EnumQuery(R(2), 2, square=-1, k_pairing=-1, predicate="exceptional")
    assert q.resolved_square == -1 and q.resolved_k_pairing == -1
    # the resolved pair is kept beside the fields, out of equality and repr
    p = EnumQuery(R(2), 2, predicate="exceptional")
    assert (p.resolved_square, p.resolved_k_pairing) == (-1, -1) and p != q
    assert repr(p) == ("EnumQuery(model=LatticeModel.rational(2), coeff_bound=2, square=None, "
                       "k_pairing=None, predicate='exceptional')")


def test_safety_limits():
    with pytest.raises(ValueError, match="bound exceeds safety limit"):
        enumerate_classes(EnumQuery(R(2), 9, square=-1, k_pairing=-1))
    assert enumerate_classes(
        EnumQuery(R(1), 9, square=-1, k_pairing=-1), allow_large=True
    )
    # unconstrained full grid over 7^9 vectors
    with pytest.raises(ValueError, match="bound exceeds safety limit"):
        enumerate_classes(EnumQuery(R(8), 3))
    assert len(enumerate_classes(EnumQuery(R(1), 1))) == 9


def _fail_if_listed(*args):
    raise AssertionError("a class list was built")


@pytest.mark.parametrize("constraint", [{"k_pairing": 0}, {"square": -1}], ids=["k", "square"])
def test_safety_limit_counts_constrained_scans(monkeypatch, constraint):
    # 168,240,909,767,659 and 25,057,795,512 candidates: the guard counts
    # them and refuses before any tail list is built
    monkeypatch.setattr(oracle, "_e_tails", _fail_if_listed)
    with pytest.raises(ValueError, match="bound exceeds safety limit"):
        enumerate_classes(EnumQuery(R(12), 8, **constraint))


def test_safety_limit_is_the_exact_count(monkeypatch):
    queries = [EnumQuery(R(6), 3, predicate="knull"), EnumQuery(LatticeModel.ruled(1, 3), 2, square=-1)]
    for q in queries:
        size = len(enumerate_classes(q, allow_large=True))
        assert size > 0
        monkeypatch.setattr(oracle, "_GRID_LIMIT", size)
        assert len(enumerate_classes(q)) == size
        monkeypatch.setattr(oracle, "_GRID_LIMIT", size - 1)
        with pytest.raises(ValueError, match="bound exceeds safety limit"):
            enumerate_classes(q)
        assert len(enumerate_classes(q, allow_large=True)) == size


def _product_scan(model, bound):
    """(coeffs, square, K-pairing, characteristic) for every vector of
    the grid, in itertools.product order."""
    k0 = model.k0_form()
    rows = []
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=model.rank):
        x = HomClass(model, coeffs)
        rows.append((coeffs, pairing(x, x), form_pairing(k0, x), is_characteristic(x)))
    return rows


_IMPLIED = {
    None: (None, None),
    "exceptional": (-1, -1),
    "knull": (-2, 0),
    "characteristic": (None, None),
}


def _product_filter(rows, square, k_pairing, predicate):
    implied_s, implied_k = _IMPLIED[predicate]
    square = implied_s if square is None else square
    k_pairing = implied_k if k_pairing is None else k_pairing
    return [
        coeffs
        for coeffs, sq, kp, char in rows
        if (square is None or sq == square)
        and (k_pairing is None or kp == k_pairing)
        and (predicate != "characteristic" or char)
    ]


_CONSTRAINTS = [(s, k) for s in (None, -2, -1, 1) for k in (None, -1, 0)]


_GRID_MODELS = {f"rational({n})": R(n) for n in range(6)} | {
    f"ruled({h},{n})": LatticeModel.ruled(h, n) for h in (1, 2) for n in range(4)
}


@pytest.mark.parametrize("model", list(_GRID_MODELS.values()), ids=list(_GRID_MODELS))
def test_enumerate_matches_product_filter(model):
    # lists and order against a plain filter over the whole grid
    for bound in (1, 2, 3):
        rows = _product_scan(model, bound)
        queries = [(s, k, None) for s, k in _CONSTRAINTS]
        queries += [(s, k, "characteristic") for s, k in _CONSTRAINTS]
        queries += [(None, None, "exceptional"), (None, None, "knull")]
        for s, k, predicate in queries:
            q = EnumQuery(model, bound, square=s, k_pairing=k, predicate=predicate)
            got = [x.coeffs for x in enumerate_classes(q)]
            assert got == _product_filter(rows, s, k, predicate), (bound, s, k, predicate)


def test_each_state_is_solved_once_per_scan(monkeypatch):
    solved = {"_e_count": [], "_e_tails": []}
    for name in solved:
        def recording(n, bound, total, sq_total, *rest, fn=getattr(oracle, name), name=name):
            # the memo is the last argument; a state missing from it is solved now
            if (n, total, sq_total) not in rest[-1]:
                solved[name].append((n, total, sq_total))
            return fn(n, bound, total, sq_total, *rest)

        monkeypatch.setattr(oracle, name, recording)
    queries = [
        EnumQuery(R(8), 3, predicate="knull"),
        EnumQuery(R(10), 3, predicate="exceptional"),
        EnumQuery(LatticeModel.ruled(2, 5), 3, square=-1),
        EnumQuery(R(4), 2, predicate="characteristic"),
    ]
    for q in queries:
        for states in solved.values():
            states.clear()
        out = enumerate_classes(q)
        assert out
        counted, listed = solved["_e_count"], solved["_e_tails"]
        assert len(counted) == len(set(counted))
        assert len(listed) == len(set(listed))
        assert set(listed) <= set(counted)


def test_scan_leaves_no_garbage():
    # the memos are plain dicts of the call: freed on return, no cycles
    gc.collect()
    gc.disable()
    try:
        assert enumerate_classes(EnumQuery(R(8), 3, predicate="knull"))
        assert enumerate_classes(EnumQuery(LatticeModel.ruled(1, 4), 2, k_pairing=0))
        assert crosscheck(EnumQuery(R(4), 2, predicate="exceptional")).ok
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("query", [
    EnumQuery(R(6), 2, predicate="knull"),
    EnumQuery(R(4), 2, k_pairing=-1),
    EnumQuery(LatticeModel.ruled(2, 3), 2, square=-1),
], ids=["knull", "k_pairing", "ruled"])
def test_listed_classes_equal_checked_classes(monkeypatch, query):
    # the scan builds its classes without re-checking each coefficient;
    # they must be the classes the public constructor builds
    builds = []
    init = HomClass.__init__

    def counting_init(self, model, coeffs):
        builds.append(coeffs)
        init(self, model, coeffs)

    monkeypatch.setattr(HomClass, "__init__", counting_init)
    listed = enumerate_classes(query)
    assert builds == []
    monkeypatch.undo()
    assert listed
    for x in listed:
        assert type(x.coeffs) is tuple and all(type(c) is int for c in x.coeffs)
        y = HomClass(query.model, x.coeffs)
        assert x == y and y == x and hash(x) == hash(y)
        assert x.square() == y.square()


def test_public_homclass_keeps_its_checks():
    with pytest.raises(ValueError, match="length"):
        HomClass(R(2), (1, 0))
    with pytest.raises(TypeError, match="exact integers"):
        HomClass(R(2), (1, 0, 0.5))
    with pytest.raises(TypeError, match="exact integers"):
        HomClass(R(2), (1, 0, "1"))
    # bools compare and add as ints, but a class keeps no True coefficient
    for bad in ((True, 0, 0, 0), (1, 0, False, 0)):
        with pytest.raises(TypeError, match="exact integers"):
            HomClass(R(3), bad)


def test_enumerate_binary_pair():
    out = enumerate_classes(EnumQuery(R(2), 2, square=-2, k_pairing=0))
    assert texts(R(2), out) == {(0, 1, -1), (0, -1, 1)}


def test_enumerate_roots_n3():
    out = enumerate_classes(EnumQuery(R(3), 1, square=-2, k_pairing=0))
    assert len(out) == 8
    m = R(3)
    expected = {(1, -1, -1, -1), (-1, 1, 1, 1)}
    for i in range(1, 4):
        for j in range(1, 4):
            if i != j:
                expected.add(tuple((m.E(i) - m.E(j)).coeffs))
    assert texts(m, out) == expected


def test_enumerate_ruled_exceptional():
    # at genus 1 the K constraint loses its t-term, so two section-mixing
    # solutions join E1 and F-E1; they are numeric solutions only and
    # both classification sides reject them
    m = LatticeModel.ruled(1, 1)
    out = enumerate_classes(EnumQuery(m, 1, square=-1, k_pairing=-1))
    assert texts(m, out) == {(0, 0, 1), (0, 1, -1), (1, 0, 1), (-1, 0, 1)}
    k0 = m.k0_form()
    for x in out:
        assert is_exceptional(x, k0) == bfs_is_exceptional(x)
    # each genus has its own section-mixing solution; crosscheck stays clean
    m2 = LatticeModel.ruled(2, 1)
    out2 = enumerate_classes(EnumQuery(m2, 1, square=-1, k_pairing=-1))
    assert texts(m2, out2) == {(0, 0, 1), (0, 1, -1), (-1, 0, -1)}
    assert crosscheck(EnumQuery(m2, 1, predicate="exceptional")).ok


def test_enumerate_sorted_and_constrained():
    q = EnumQuery(R(4), 2, square=-1, k_pairing=-1)
    out = enumerate_classes(q)
    assert [x.coeffs for x in out] == sorted(x.coeffs for x in out)
    k0 = R(4).k0_form()
    for x in out:
        assert pairing(x, x) == -1
        assert form_pairing(k0, x) == -1
        assert all(abs(c) <= 2 for c in x.coeffs)


def test_enumerate_characteristic():
    out = enumerate_classes(EnumQuery(R(2), 1, predicate="characteristic"))
    # all coefficients odd
    assert len(out) == 8
    for x in out:
        assert is_characteristic(x)
        assert all(c % 2 == 1 for c in (x.coeffs[0], -x.coeffs[1], -x.coeffs[2]))


def test_bfs_exceptional():
    m5 = R(5)
    assert bfs_is_exceptional(parse_class("E1", m5))
    assert bfs_is_exceptional(parse_class("2H-E1-E2-E3-E4-E5", m5))
    assert not bfs_is_exceptional(parse_class("-E1", m5))
    assert not bfs_is_exceptional(parse_class("H-E1", m5))
    # the pair class seeds its own orbit at n=2 and reduces at n=3,
    # where it is one ternary twist from E3
    assert bfs_is_exceptional(parse_class("H-E1-E2", R(2)), depth=0)
    assert not bfs_is_exceptional(parse_class("H-E1-E2", R(3)), depth=0)
    assert bfs_is_exceptional(parse_class("H-E1-E2", R(3)), depth=1)
    assert bfs_is_exceptional(parse_class("H-E1-E2", R(3)))


def test_bfs_knull():
    assert bfs_is_knull_spherical(parse_class("E1-E2", R(2)))
    assert bfs_is_knull_spherical(parse_class("H-E1-E2-E3", R(3)))
    assert bfs_is_knull_spherical(parse_class("2H-E1-E2-E3-E4-E5-E6", R(6)))
    m11 = R(11)
    stuck = parse_class("3H+E1-E2-E3-E4-E5-E6-E7-E8-E9-E10-E11", m11)
    assert pairing(stuck, stuck) == -2
    assert form_pairing(m11.k0_form(), stuck) == 0
    assert not bfs_is_knull_spherical(stuck, depth=6)


def test_bfs_ruled():
    m = LatticeModel.ruled(1, 3)
    assert bfs_is_exceptional(parse_class("F-E2", m))
    assert bfs_is_knull_spherical(parse_class("F-E1-E3", m))
    assert bfs_is_knull_spherical(parse_class("E3-E1", m))
    assert not bfs_is_knull_spherical(parse_class("T-E1-E3", m))


def test_default_depth_is_refused_at_rational_n9_and_up(monkeypatch):
    # the twist orbit is infinite at rational n >= 9, where a search of
    # the default depth 2n does not end on a class that passes the gate
    # but has no seed in its orbit: depth is required there, as
    # degree_bound is for enumerate_exceptional, and checked at entry
    message = "depth required for rational models with n >= 9"
    x = parse_class("3H-E1-E2-E3-E4-E5-E6-E7-E8-E9+E10", R(10))
    for search, y in itertools.product(
        (bfs_is_exceptional, bfs_is_knull_spherical), (x, R(9).E(1), R(12).zero())
    ):
        with pytest.raises(ValueError, match=message):
            search(y)
    assert not bfs_is_exceptional(x, depth=8)
    assert bfs_is_exceptional(R(9).E(1), depth=1)
    # crosscheck refuses before it scans
    scans = []
    monkeypatch.setattr(oracle, "enumerate_classes", lambda q, **kw: scans.append(q) or [])
    q = EnumQuery(R(10), 3, predicate="exceptional")
    with pytest.raises(ValueError, match=message):
        crosscheck(q)
    assert scans == []
    assert crosscheck(q, depth=8).checked == 0 and scans == [q]
    monkeypatch.undo()
    # smaller rational models and ruled models keep the default
    assert bfs_is_knull_spherical(parse_class("2H-E1-E2-E3-E4-E5-E6", R(8)))
    assert bfs_is_exceptional(parse_class("F-E2", LatticeModel.ruled(1, 9)))
    assert crosscheck(EnumQuery(LatticeModel.ruled(1, 9), 1, predicate="exceptional")).ok


def _refuse_scans(*args, **kwargs):
    raise AssertionError("the scan started")


@pytest.mark.parametrize("call, error, message", [
    (lambda x, q: crosscheck(q, depth=-1), ValueError, "depth must be nonnegative"),
    (lambda x, q: crosscheck(q, depth=True), TypeError, "depth must be an integer"),
    (lambda x, q: crosscheck(q, depth=2.5), TypeError, "depth must be an integer"),
    (lambda x, q: crosscheck(q, sample=0), ValueError, "sample must be positive"),
    (lambda x, q: crosscheck(q, sample=-1), ValueError, "sample must be positive"),
    (lambda x, q: crosscheck(q, sample=True), TypeError, "sample must be an integer"),
    (lambda x, q: crosscheck(q, sample=2.5), TypeError, "sample must be an integer"),
    (lambda x, q: bfs_is_exceptional(x, depth=-3), ValueError, "depth must be nonnegative"),
    (lambda x, q: bfs_is_exceptional(x, depth=True), TypeError, "depth must be an integer"),
    (lambda x, q: bfs_is_knull_spherical(x, depth=2.5), TypeError, "depth must be an integer"),
    (lambda x, q: crosscheck(q, sample=2, seed=[1]), TypeError, "supported seed types"),
    (lambda x, q: crosscheck(EnumQuery("rational:4", 2)), TypeError,
     "query model must be a LatticeModel, not 'rational:4'"),
], ids=["crosscheck-depth-negative", "crosscheck-depth-bool", "crosscheck-depth-float",
        "crosscheck-sample-zero", "crosscheck-sample-negative", "crosscheck-sample-bool",
        "crosscheck-sample-float", "bfs-depth-negative", "bfs-depth-bool", "bfs-knull-depth-float",
        "crosscheck-seed-list", "query-model-spec-string"])
def test_depth_and_sample_are_checked_before_the_scan(monkeypatch, call, error, message):
    # a negative depth would search nothing, a bool would search as 0 or
    # 1, and a float, a bad sample or seed, or a query whose model is no
    # model would fail only after or inside the scan
    monkeypatch.setattr(oracle, "enumerate_classes", _refuse_scans)
    x = parse_class("H-E1-E2", R(4))
    with pytest.raises(error, match=message):
        call(x, EnumQuery(R(4), 2, predicate="exceptional"))


# The targets as the oracle once wrote them, one predicate per family on
# canonical nodes; kept here as the reference for the seed sets.
def _reference_exceptional(model, node):
    head = model.e_offset
    c = node[head:]
    nonzero = [v for v in c if v]
    if model.kind == RATIONAL:
        a = node[0]
        if a == 0:
            return nonzero == [1]
        # at n=2 no ternary twist exists and H-E1-E2 seeds its own orbit
        if model.n == 2 and a == 1:
            return c == (-1, -1)
        return False
    t, f = node[0], node[1]
    if t != 0 or len(nonzero) != 1:
        return False
    return (f, nonzero[0]) in ((0, 1), (1, -1))


def _reference_knull(model, node):
    head = model.e_offset
    c = node[head:]
    nonzero = sorted(v for v in c if v)
    if model.kind == RATIONAL:
        a = node[0]
        if a == 0:
            return nonzero == [-1, 1]
        if a in (1, -1):
            return nonzero == [-a, -a, -a]
        return False
    t, f = node[0], node[1]
    if t != 0:
        return False
    if f == 0:
        return nonzero == [-1, 1]
    return abs(f) == 1 and nonzero == [-f, -f]


_REFERENCE = {"exceptional": _reference_exceptional, "knull": _reference_knull}


class _Accepts:
    """A reference predicate read as the set of nodes it accepts."""

    def __init__(self, model, predicate):
        self.model = model
        self.predicate = predicate

    def __contains__(self, node):
        return self.predicate(self.model, node)


_SMALL_MODELS = [R(n) for n in range(11)] + [
    LatticeModel.ruled(h, n) for h in (1, 2, 3) for n in range(7)
]


@pytest.mark.parametrize("model", _SMALL_MODELS, ids=repr)
def test_seed_sets_are_the_nodes_the_references_accept(model):
    # every seed has coefficients in [-1, 1], so the canonical nodes with
    # coefficients in [-2, 2] hold all of them, and the rest must be rejected
    values = range(-2, 3)
    nodes = [
        head + tail
        for head in itertools.product(values, repeat=model.e_offset)
        for tail in itertools.combinations_with_replacement(values, model.n)
    ]
    for predicate, reference in _REFERENCE.items():
        assert oracle._seeds(model, predicate) == {v for v in nodes if reference(model, v)}


@st.composite
def _small_classes(draw):
    if draw(st.booleans()):
        model = R(draw(st.integers(0, 10)))
    else:
        model = LatticeModel.ruled(draw(st.integers(1, 3)), draw(st.integers(0, 6)))
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=model.rank, max_size=model.rank))
    return HomClass(model, tuple(coeffs))


@given(x=_small_classes(), depth=st.integers(0, 4))
@example(x=parse_class("H-E1-E2", R(2)), depth=0)
@example(x=parse_class("H-E1-E2", R(3)), depth=0)
@example(x=parse_class("H-E1-E2", R(3)), depth=1)
@example(x=parse_class("-H+E1+E2+E3", R(3)), depth=0)
@example(x=parse_class("-F+E1+E2", LatticeModel.ruled(1, 2)), depth=0)
@example(x=HomClass(R(0), (1,)), depth=2)
@example(x=parse_class("E1", R(1)), depth=2)
@example(x=parse_class("H-E1", R(1)), depth=2)
@settings(max_examples=200, deadline=None)
def test_orbit_search_on_seed_sets_matches_the_references(x, depth):
    for predicate, reference in _REFERENCE.items():
        expected = oracle._orbit_search(x, _Accepts(x.model, reference), depth)
        assert oracle._orbit_search(x, oracle._seeds(x.model, predicate), depth) == expected


def _reference_orbit_search(x, seeds, depth):
    """The orbit search as the oracle once wrote it: the last level is
    built into ``seen`` and a next frontier like every other."""
    model = x.model
    if depth is None:
        depth = 2 * model.n
    node = oracle._canon(model, tuple(x.coeffs))
    if node in seeds:
        return True
    seen = {node}
    frontier = [node]
    for _ in range(depth):
        nxt = []
        for node in frontier:
            for child in oracle._children(model, node):
                if child in seen:
                    continue
                seen.add(child)
                if child in seeds:
                    return True
                nxt.append(child)
        frontier = nxt
        if not frontier:
            break
    return False


@given(x=_small_classes(), depth=st.one_of(st.none(), st.integers(0, 4)))
@example(x=parse_class("H-E1-E2", R(3)), depth=1)
@example(x=parse_class("E1-E2", R(2)), depth=None)
@example(x=parse_class("2H-E1-E2-E3-E4-E5", R(5)), depth=1)
@example(x=parse_class("F-E1-E3", LatticeModel.ruled(2, 4)), depth=None)
@example(x=parse_class("3H-E1-E2-E3-E4-E5-E6-E7-E8-E9+E10", R(10)), depth=8)
@settings(max_examples=300, deadline=None)
def test_orbit_search_matches_the_storing_reference(x, depth):
    # the default depth 2n closes the finite orbits only: rational n <= 8
    # and every ruled model; past them a miss runs for minutes
    assume(depth is not None or x.model.kind != RATIONAL or x.model.n <= 8)
    for predicate in _REFERENCE:
        seeds = oracle._seeds(x.model, predicate)
        assert oracle._orbit_search(x, seeds, depth) == _reference_orbit_search(x, seeds, depth)


def test_seed_sets_are_kept_per_model_and_predicate():
    for model in (R(6), LatticeModel.ruled(2, 3)):
        for predicate in _REFERENCE:
            seeds = oracle._seeds(model, predicate)
            assert type(seeds) is frozenset
            assert oracle._seeds(model, predicate) is seeds
            # a model built directly equals the shared one, and so its seeds
            direct = LatticeModel(model.kind, model.n, model.genus)
            assert direct is not model
            assert oracle._seeds(direct, predicate) == seeds


def test_a_gated_search_on_a_warm_model_hashes_no_record(monkeypatch):
    from latwist.lattice import _Record

    # each class passes its predicate's gate, so every search reads the seeds
    cases = [
        (bfs_is_exceptional, parse_class("2H-E1-E2-E3-E4-E5", R(8)), True),
        (bfs_is_knull_spherical, parse_class("H-E1-E2-E3", R(8)), True),
        # square -1 and K-pairing -1, but no seed within four twists
        (bfs_is_exceptional, parse_class("3H-E1-E2-E3-E4-E5-E6-E7-E8-E9+E10", R(10)), False),
        (bfs_is_exceptional, parse_class("F-E1", LatticeModel.ruled(2, 3)), True),
    ]
    for search, x, expected in cases:
        assert search(x, depth=4) is expected
    hashes = []
    inner = _Record.__hash__

    def counting_hash(self):
        hashes.append(self)
        return inner(self)

    monkeypatch.setattr(_Record, "__hash__", counting_hash)
    # the spy sees a record's hash
    hash(R(8))
    assert hashes == [R(8)]
    hashes.clear()
    results = [search(x, depth=4) for search, x, _ in cases]
    monkeypatch.undo()
    assert results == [expected for _, _, expected in cases]
    assert hashes == []


def test_oracle_gates_never_reach_form_pairing(monkeypatch):
    # K_0 has denominator 1, so the K-gate is the integer product with
    # its numerators and the square gate reads the class's kept square
    m10, mr = R(10), LatticeModel.ruled(1, 4)
    cases = [
        (bfs_is_exceptional, parse_class("2H-E1-E2-E3-E4-E5", m10), True),
        (bfs_is_exceptional, parse_class("3H-E1-E2-E3-E4-E5-E6-E7-E8-E9+E10", m10), False),
        (bfs_is_exceptional, parse_class("H-E1", m10), False),
        (bfs_is_knull_spherical, parse_class("H-E1-E2-E3", m10), True),
        (bfs_is_knull_spherical, parse_class("E1+E2", m10), False),
        (bfs_is_exceptional, parse_class("F-E2", mr), True),
        (bfs_is_knull_spherical, parse_class("F-E1-E3", mr), True),
        (bfs_is_knull_spherical, parse_class("T-E1-E3", mr), False),
    ]
    calls = count_form_pairing(monkeypatch)
    verdicts = [search(x, depth=8) for search, x, _ in cases]
    # the wrapper is in place: the library's Lagrangian criterion still reads an area
    is_lagrangian_spherical(parse_class("E1-E2", R(3)), R(3).k0_form() * -1)
    monkeypatch.undo()
    assert len(calls) == 1
    assert verdicts == [expected for _, _, expected in cases]


def _reference_children(model, node):
    """The child generator as the oracle once wrote it: every index tuple
    in lexicographic order, less those whose value tuple came before."""
    head = model.e_offset
    c = node[head:]
    n = len(c)
    seen = set()
    if model.kind == RATIONAL:
        a = node[0]
        for i, j, k in itertools.combinations(range(n), 3):
            trip = (c[i], c[j], c[k])
            if trip in seen:
                continue
            seen.add(trip)
            d = a + c[i] + c[j] + c[k]
            if d == 0:
                continue
            tail = list(c)
            tail[i] -= d
            tail[j] -= d
            tail[k] -= d
            yield (a + d,) + tuple(sorted(tail))
    else:
        t, f = node[0], node[1]
        for i, j in itertools.combinations(range(n), 2):
            pair = (c[i], c[j])
            if pair in seen:
                continue
            seen.add(pair)
            d = t + c[i] + c[j]
            if d == 0:
                continue
            tail = list(c)
            tail[i] -= d
            tail[j] -= d
            yield (t, f + d) + tuple(sorted(tail))


@st.composite
def _canonical_nodes(draw):
    """A model and a canonical node whose tail draws from at most three
    values, so most index tuples repeat a value tuple."""
    if draw(st.booleans()):
        model = R(draw(st.integers(0, 10)))
    else:
        model = LatticeModel.ruled(draw(st.integers(1, 3)), draw(st.integers(0, 6)))
    pool = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3))
    head = draw(st.lists(st.integers(-9, 9), min_size=model.e_offset, max_size=model.e_offset))
    tail = draw(st.lists(st.sampled_from(pool), min_size=model.n, max_size=model.n))
    return model, tuple(head) + tuple(sorted(tail))


@given(case=_canonical_nodes())
@example(case=(R(10), (3,) + (-1,) * 10))
@example(case=(R(10), (1,) + (-1,) * 10))
@example(case=(R(7), (0, -2, -1, -1, 0, 1, 1, 3)))
@example(case=(LatticeModel.ruled(2, 6), (2, 0) + (-1,) * 6))
@example(case=(LatticeModel.ruled(1, 5), (0, 1, -1, 0, 0, 1, 1)))
@settings(max_examples=400, deadline=None)
def test_children_match_the_reference_generator(case):
    model, node = case
    assert list(oracle._children(model, node)) == list(_reference_children(model, node))


@pytest.mark.parametrize("model", _SMALL_MODELS, ids=repr)
def test_children_of_all_equal_tails(model):
    width = 3 if model.kind == RATIONAL else 2
    for value in range(-2, 3):
        tail = (value,) * model.n
        # a head that the one twist cancels (d == 0) leaves no child
        zero = (-width * value,) + (0,) * (model.e_offset - 1)
        for head in (zero, (1,) * model.e_offset, (-3,) * model.e_offset):
            node = head + tail
            children = list(oracle._children(model, node))
            assert children == list(_reference_children(model, node))
            twists = int(model.n >= width and head != zero)
            assert len(children) == twists


def test_orbit_search_expands_the_reference_sequence(monkeypatch):
    # one of the n = 10 classes of square and K-pairing -1 that are not
    # exceptional: the search runs to full depth without a seed
    x = parse_class("3H-E1-E2-E3-E4-E5-E6-E7-E8-E9+E10", R(10))
    assert not is_exceptional(x)
    runs = {}
    for name, generator in (("reference", _reference_children), ("oracle", oracle._children)):
        expanded, seen = [], set()

        def spy(model, node, generator=generator, expanded=expanded, seen=seen):
            expanded.append(node)
            for child in generator(model, node):
                seen.add(child)
                yield child

        monkeypatch.setattr(oracle, "_children", spy)
        runs[name] = (bfs_is_exceptional(x, depth=8), expanded, seen | {expanded[0]})
    verdict, expanded, seen = runs["oracle"]
    assert runs["oracle"] == runs["reference"]
    assert verdict is False and len(expanded) == 406 and len(seen) == 1939


def test_crosscheck_examples():
    r = crosscheck(EnumQuery(R(6), 3, predicate="knull"))
    assert r.ok and r.checked == 72 and r.disagreements == ()
    r = crosscheck(EnumQuery(R(3), 2, predicate="exceptional"))
    assert r.ok and r.checked == 6
    r = crosscheck(EnumQuery(R(1), 1, square=5))
    assert r.ok and r.checked == 0
    assert bool(r)


def test_crosscheck_characteristic_and_ruled():
    r = crosscheck(EnumQuery(R(3), 1, predicate="characteristic"))
    assert r.ok and r.checked > 0
    r = crosscheck(EnumQuery(LatticeModel.ruled(1, 2), 2, predicate="exceptional"))
    assert r.ok and r.checked > 2


@pytest.mark.parametrize("predicate", ["knull", "exceptional"])
@pytest.mark.parametrize(
    "model, checked",
    [
        (LatticeModel.ruled(1, 4), {"knull": 184, "exceptional": 100}),
        (LatticeModel.ruled(2, 3), {"knull": 42, "exceptional": 51}),
        (LatticeModel.ruled(3, 3), {"knull": 30, "exceptional": 28}),
        (R(9), {"knull": 408, "exceptional": 171}),
    ],
    ids=["ruled(1,4)", "ruled(2,3)", "ruled(3,3)", "rational(9)"],
)
def test_crosscheck_ruled_and_n9(model, checked, predicate):
    # library against BFS on every class of coefficients in [-2, 2]
    # with the predicate's square and K-pairing; rational n >= 9 takes an
    # explicit depth, here 2n, the default of the smaller models
    depth = 2 * model.n if model.kind == RATIONAL else None
    r = crosscheck(EnumQuery(model, 2, predicate=predicate), depth=depth)
    assert r.ok and r.checked == checked[predicate]


@pytest.mark.parametrize("n, bound", [(9, 2), (9, 3), (10, 2)])
def test_bounded_listing_matches_bfs(n, bound):
    # every exceptional class but E_i has 0 <= b_i <= a, so the classes
    # with a <= bound are exactly those with coefficients in [-bound, bound]
    m = R(n)
    scan = enumerate_classes(EnumQuery(m, bound, predicate="exceptional"))
    expected = [x for x in scan if bfs_is_exceptional(x, depth=2 * n)]
    assert list(enumerate_exceptional(m, degree_bound=bound)) == expected


def test_bounded_k_delta_listing_matches_bfs():
    # a K_delta listing is the BFS-checked K_0 listing with K's E-signs
    m = R(9)
    signs = (1, -1, 1, 1, -1, -1, 1, -1, 1)
    scan = enumerate_classes(EnumQuery(m, 3, predicate="exceptional"))
    flipped = [
        HomClass(m, x.coeffs[:1] + tuple(s * c for s, c in zip(signs, x.coeffs[1:])))
        for x in scan
        if bfs_is_exceptional(x, depth=18)
    ]
    es = enumerate_exceptional(m, FormClass(m, (-3,) + signs), degree_bound=3)
    assert list(es) == sorted(flipped, key=lambda x: x.coeffs)


def test_crosscheck_sampling():
    q = EnumQuery(R(6), 3, predicate="knull")
    r1 = crosscheck(q, sample=10, seed=42)
    r2 = crosscheck(q, sample=10, seed=42)
    assert r1.checked == 10 and r1.classes == r2.classes
    assert r1.ok
    assert crosscheck(q, sample=1, seed=42).checked == 1


def test_report_json():
    q = EnumQuery(R(3), 2, predicate="exceptional")
    data = crosscheck(q).to_json()
    assert data["summary"]["checked"] == 6
    assert data["summary"]["disagreements"] == []
    assert len(data["classes"]) == 6
    assert data["query"]["coeff_bound"] == 2
    assert data["query"]["predicate"] == "exceptional"
    # the query's fields in their order, which the CLI's text output keeps
    assert list(data["query"].items()) == [
        ("model", {"type": "rational", "n": 3}), ("coeff_bound", 2), ("square", None),
        ("k_pairing", None), ("predicate", "exceptional"),
    ]


def test_knull_agreement_small():
    # library decision vs orbit search on every bounded candidate
    for n in (2, 3, 4):
        m = R(n)
        k0 = m.k0_form()
        for x in enumerate_classes(EnumQuery(m, 2, square=-2, k_pairing=0)):
            assert is_K_null_spherical(x, k0) == bfs_is_knull_spherical(x)
