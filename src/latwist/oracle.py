"""Brute-force oracles, independent of the reduction algorithms.

Two primitives: bounded exhaustive enumeration of classes satisfying
numeric constraints, and breadth-first orbit search over the twist
generators with canonical-form dedup.  Cross-checking runs both sides
of every classification decision and reports disagreements, which are
expected to be none.

A search first gates on the square and the K_0-pairing, which twists
preserve, then walks the orbit level by level towards the predicate's
seed set, built once per model.  The last level is tested against the
seeds but not kept: it is never expanded, so no child of it is stored.

An enumeration completes each head (H, or T and F) by the E-tails of
its suffix state: the tail length and the sum and square-sum still to
reach.  No move enters a state its rest cannot complete: a move keeps
the square-sum within 0 and the capacity (n - 1) bound^2, at least the
sum's absolute value (v^2 >= |v| for integers) and at least its square
over n - 1 (Cauchy-Schwarz), or, without a square target, the sum
within the capacity (n - 1) bound.  These are necessary conditions
only, so counts stay exact.  A root whose square-sum and sum differ in
parity has no move, since v^2 - v is even.  Each scan first counts the
tails of every state, once, and refuses a scan over the candidate cap
before any class is built; then it lists each non-empty state once.
Both memos are plain dicts local to the scan, so they are freed when
it returns.
"""

import itertools
import random
from collections import namedtuple
from math import isqrt

from .classexpr import class_to_json, model_to_json, print_class
from .lattice import (
    RATIONAL,
    HomClass,
    LatticeModel,
    _check_int,
    _Record,
    _gram_product,
    is_characteristic,
    pairing,
)
from .reduction import is_K_null_spherical, is_exceptional

SAFETY_LIMIT = 8

# cap on the candidates one scan may list, counted before any is built
_GRID_LIMIT = 2_000_000

# predicate name -> implied (square, k_pairing), None entries left free
_PREDICATES = {
    "exceptional": (-1, -1),
    "knull": (-2, 0),
    "characteristic": (None, None),
}


def _resolve_predicate(predicate, square, k_pairing) -> tuple:
    """The (square, k_pairing) a scan pins: each explicit value, else the
    one the predicate implies (None: free).  An unknown predicate, or one
    that contradicts an explicit value, raises ValueError."""
    if predicate is None:
        return square, k_pairing
    if predicate not in _PREDICATES:
        raise ValueError(f"unknown predicate {predicate!r}")
    resolved = []
    for value, implied in zip((square, k_pairing), _PREDICATES[predicate]):
        if value is not None and implied is not None and value != implied:
            raise ValueError("predicate conflicts with explicit constraints")
        resolved.append(implied if value is None else value)
    return tuple(resolved)


class EnumQuery(_Record):
    """Constraints for a bounded exhaustive scan.

    ``square`` and ``k_pairing`` pin the corresponding invariants when
    given.  ``predicate`` names a standard filter and implies the
    matching numeric constraints (``characteristic`` filters by parity
    instead).  ``coeff_bound`` caps every basis coefficient in absolute
    value.  ``resolved_square`` and ``resolved_k_pairing`` are the values
    the scan pins, kept beside the fields.
    """

    _fields = ("model", "coeff_bound", "square", "k_pairing", "predicate")

    def __init__(self, model: LatticeModel, coeff_bound: int, square: int | None = None,
                 k_pairing: int | None = None, predicate: str | None = None):
        if not isinstance(model, LatticeModel):
            raise TypeError(f"query model must be a LatticeModel, not {model!r}")
        _check_int(coeff_bound, "coeff_bound", 1)
        for value, label in ((square, "square"), (k_pairing, "k_pairing")):
            if value is not None:
                _check_int(value, label)
        s, k = _resolve_predicate(predicate, square, k_pairing)
        self.__dict__.update(model=model, coeff_bound=coeff_bound, square=square,
                             k_pairing=k_pairing, predicate=predicate,
                             resolved_square=s, resolved_k_pairing=k)


def _steps(n, bound, total, sq_total):
    """The moves out of the suffix state (n, total, sq_total), n > 0: one
    (value, rest_total, rest_sq) per first entry in increasing order.

    A move is kept only when its rest (n - 1, T', S') can still be
    completed by entries in [-bound, bound]:

    - |value| <= isqrt(sq_total), so S' >= 0;
    - S' <= (n - 1) bound^2, as no square exceeds bound^2;
    - S' >= |T'|, as v^2 >= |v| for every integer v;
    - T'^2 <= (n - 1) S', by Cauchy-Schwarz;
    - without a square target, |T'| <= (n - 1) bound.

    At n = 1 they leave only the moves whose rest has both targets 0 or
    free.  A state with both targets and sq_total - total odd has no
    move, as the sum of v^2 - v over a tail is even; each move keeps
    that parity, so only a root can fail the test.
    """
    rest = n - 1
    if sq_total is None:
        values = range(-bound, bound + 1)
        if total is None:
            return [(value, None, None) for value in values]
        cap = rest * bound
        return [(value, total - value, None) for value in values if abs(total - value) <= cap]
    if sq_total < 0 or (total is not None and (sq_total - total) % 2):
        return ()
    top = min(bound, isqrt(sq_total))
    cap = rest * bound * bound
    if total is None:
        return [
            (value, None, sq_total - value * value)
            for value in range(-top, top + 1)
            if sq_total - value * value <= cap
        ]
    moves = []
    for value in range(-top, top + 1):
        t = total - value
        s = sq_total - value * value
        if abs(t) <= s <= cap and t * t <= rest * s:
            moves.append((value, t, s))
    return moves


def _e_count(n, bound, total, sq_total, memo):
    """How many tails _e_tails lists for the state; memo maps each state
    counted so far in the scan to its count."""
    key = (n, total, sq_total)
    count = memo.get(key)
    if count is None:
        if n == 0:
            count = int(total in (None, 0) and sq_total in (None, 0))
        else:
            count = 0
            for _, t, s in _steps(n, bound, total, sq_total):
                count += _e_count(n - 1, bound, t, s, memo)
        memo[key] = count
    return count


def _e_tails(n, bound, total, sq_total, counts, memo):
    """All integer tails of length n with |entry| <= bound, matching the
    optional sum and square-sum targets, in lexicographic order.

    Called only on states that ``counts``, the scan's _e_count memo,
    holds as non-empty, and it enters no empty state below.  memo maps
    each state (n, total, sq_total) solved so far in the scan to its
    list, so a state reached from many prefixes is solved once.
    """
    key = (n, total, sq_total)
    tails = memo.get(key)
    if tails is None:
        if n == 0:
            tails = [()]
        else:
            tails = [
                (value,) + tail
                for value, t, s in _steps(n, bound, total, sq_total)
                if counts[n - 1, t, s]
                for tail in _e_tails(n - 1, bound, t, s, counts, memo)
            ]
        memo[key] = tails
    return tails


def _unit_squares(model) -> list:
    """(u, u.u) for each basis class u of the model, built once per scan
    for _is_characteristic_direct."""
    return [(unit, pairing(unit, unit)) for unit in model.basis()]


def _is_characteristic_direct(x: HomClass, units) -> bool:
    """Whether x.u = u.u mod 2 for every (u, u.u) of _unit_squares: the
    definition, read through the pairing."""
    for unit, square in units:
        if (pairing(x, unit) - square) % 2:
            return False
    return True


def enumerate_classes(q: EnumQuery, *, allow_large: bool = False) -> list:
    """All classes within the coefficient bound matching the query.

    One sequential loop over the head coordinates (H, or T and F) in
    increasing order, each completed by its E-tails in lexicographic
    order, so the output is sorted by coefficient tuple and fully
    deterministic.  The tails of each suffix state are solved once per
    scan, in a memo that lives for this call only, and no move enters a
    state its rest cannot complete (the move rule of _steps: square-sum
    within 0 and the capacity, at least the sum's absolute value and at
    least its square over the length left, each a bound every tail
    meets).

    Unless ``allow_large`` is set, a bound over SAFETY_LIMIT, or a scan
    that would list more than 2,000,000 candidates, raises ValueError
    before any class is built; the candidates are counted exactly, over
    the same states, ahead of the listing.
    """
    if q.coeff_bound > SAFETY_LIMIT and not allow_large:
        raise ValueError("bound exceeds safety limit")
    model = q.model
    bound = q.coeff_bound
    s = q.resolved_square
    k = q.resolved_k_pairing
    # x = head + tail has K_0.x = K_0.head - sum(c_i) and
    # x.x = head.head - sum(c_i^2), so each head (H, or T and F) sets the
    # E-sum and E-square-sum its tails must reach
    off = model.e_offset
    k0_head = model.k0_form().num[:off]
    heads = [
        (
            head,
            None if k is None else _gram_product(model, k0_head, head) - k,
            None if s is None else _gram_product(model, head, head) - s,
        )
        for head in itertools.product(range(-bound, bound + 1), repeat=off)
    ]

    n = model.n
    counts = {}
    size = sum(_e_count(n, bound, total, sq_total, counts) for _, total, sq_total in heads)
    if size > _GRID_LIMIT and not allow_large:
        raise ValueError("bound exceeds safety limit")
    memo = {}
    # every head and tail is a tuple of ints made here, so the classes
    # skip the constructor's checks
    out = [
        HomClass._from_ints(model, head + tail)
        for head, total, sq_total in heads
        if counts[n, total, sq_total]
        for tail in _e_tails(n, bound, total, sq_total, counts, memo)
    ]
    if q.predicate == "characteristic":
        units = _unit_squares(model)
        out = [x for x in out if _is_characteristic_direct(x, units)]
    return out


# ---------------------------------------------------------------------------
# orbit search


def _canon(model, coeffs):
    head = model.e_offset
    return coeffs[:head] + tuple(sorted(coeffs[head:]))


def _children(model, node):
    """Canonical forms one twist away, one child per distinct value tuple.

    Transpositions of E-coefficients are absorbed by canonicalization,
    so only the head-mixing generators produce children: the ternary
    twists in the rational model, the fiber-binary twists in the ruled
    model.  The tail of a canonical node is sorted, so equal values sit
    side by side: each index loop steps from an index to the first one
    after it that holds another value.  Every distinct value tuple is
    then reached once, at the first index tuple that holds it, and the
    children come in the lexicographic order of those index tuples, in
    one list.
    """
    head = model.e_offset
    c = node[head:]
    n = len(c)
    # after[i]: the first index past i whose value differs from c[i]
    after = [n] * n
    for i in range(n - 2, -1, -1):
        after[i] = i + 1 if c[i + 1] != c[i] else after[i + 1]
    out = []
    if model.kind == RATIONAL:
        a = node[0]
        i = 0
        while i < n - 2:
            j = i + 1
            while j < n - 1:
                aij = a + c[i] + c[j]
                k = j + 1
                while k < n:
                    d = aij + c[k]
                    if d:
                        tail = list(c)
                        tail[i] -= d
                        tail[j] -= d
                        tail[k] -= d
                        tail.sort()
                        out.append((a + d, *tail))
                    k = after[k]
                j = after[j]
            i = after[i]
    else:
        t, f = node[0], node[1]
        i = 0
        while i < n - 1:
            ti = t + c[i]
            j = i + 1
            while j < n:
                d = ti + c[j]
                if d:
                    tail = list(c)
                    tail[i] -= d
                    tail[j] -= d
                    tail.sort()
                    out.append((t, f + d, *tail))
                j = after[j]
            i = after[i]
    return out


def _seeds(model, predicate):
    """The seed set of this model and predicate, built on first use and
    kept in the model's vars(), one dict keyed by predicate, so a search
    finds it without hashing the model."""
    kept = vars(model).get("_seed_sets")
    if kept is None:
        kept = model.__dict__["_seed_sets"] = {}
    seeds = kept.get(predicate)
    if seeds is None:
        seeds = kept[predicate] = _seed_set(model, predicate)
    return seeds


def _seed_set(model, predicate):
    """The canonical nodes the orbit search stops at.  ``exceptional``:
    E_i, and F-E_i (ruled) or H-E1-E2 (rational n = 2 only, which has
    no ternary twist).  ``knull``: E_i-E_j and +-(H-E_i-E_j-E_k), or
    +-(F-E_i-E_j) in the ruled model.  A frozenset, so equal models
    have equal sets."""
    zero = (0,) * model.e_offset
    # the head of H or F, and how many E's a twist core subtracts from it
    line, width = ((1,), 3) if model.kind == RATIONAL else ((0, 1), 2)
    if predicate == "exceptional":
        shapes = [(zero, (1,))]
        if model.kind != RATIONAL or model.n == 2:
            shapes.append((line, (-1,) * (width - 1)))
    else:
        shapes = [(zero, (-1, 1)), (line, (-1,) * width), (tuple(-v for v in line), (1,) * width)]
    n = model.n
    return frozenset(
        head + tuple(sorted(tail + (0,) * (n - len(tail))))
        for head, tail in shapes
        if len(tail) <= n
    )


def _orbit_search(x: HomClass, seeds, depth) -> bool:
    """Whether a seed lies within ``depth`` twists of x (None: 2n),
    breadth first over canonical nodes.  Every node kept in ``seen`` was
    tested against the seeds when it was first reached, so the children
    of the last level are tested against the seeds only: none of them is
    kept, as none is expanded."""
    model = x.model
    if depth is None:
        depth = 2 * model.n
    node = _canon(model, tuple(x.coeffs))
    if node in seeds:
        return True
    seen = {node}
    frontier = [node]
    for _ in range(depth - 1):
        nxt = []
        for node in frontier:
            for child in _children(model, node):
                if child not in seen:
                    if child in seeds:
                        return True
                    seen.add(child)
                    nxt.append(child)
        if not nxt:
            return False
        frontier = nxt
    if depth > 0:
        for node in frontier:
            for child in _children(model, node):
                if child in seeds:
                    return True
    return False


def _check_depth(model, depth):
    # the twist orbit is infinite at rational n >= 9, where a search of
    # depth 2n on a gated class with no seed in its orbit does not end
    if depth is None and model.kind == RATIONAL and model.n >= 9:
        raise ValueError("depth required for rational models with n >= 9")
    if depth is not None:
        _check_int(depth, "depth", 0)


def _gated_search(x: HomClass, predicate, depth) -> bool:
    _check_depth(x.model, depth)
    # twists preserve the square and the K_0-pairing, so a class that
    # fails either gate has no seed in its orbit; K_0 has denominator 1,
    # so the pairing is the integer product with its numerators
    square, k_pairing = _PREDICATES[predicate]
    model = x.model
    if x._square != square or _gram_product(model, model.k0_form().num, x.coeffs) != k_pairing:
        return False
    return _orbit_search(x, _seeds(model, predicate), depth)


def bfs_is_exceptional(x: HomClass, *, depth: int | None = None) -> bool:
    """Exceptional test from the definition: numeric invariants plus a
    bounded-depth orbit search reaching a seed class.  ``depth`` (default
    2n) is an int >= 0 and is required for rational models with n >= 9
    (ValueError)."""
    return _gated_search(x, "exceptional", depth)


def bfs_is_knull_spherical(x: HomClass, *, depth: int | None = None) -> bool:
    """K-null spherical test from the definition: numeric invariants
    plus a bounded-depth orbit search reaching a binary or ternary
    class (fiber-binary in the ruled model); ``depth`` as above."""
    return _gated_search(x, "knull", depth)


# ---------------------------------------------------------------------------
# cross-checking


Disagreement = namedtuple("Disagreement", "cls operation library oracle")


class CrosscheckReport(_Record):
    _fields = ("query", "classes", "disagreements")

    def __init__(self, query: EnumQuery, classes: tuple, disagreements: tuple):
        self.__dict__.update(query=query, classes=classes, disagreements=disagreements)

    @property
    def checked(self) -> int:
        return len(self.classes)

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def __bool__(self):
        return self.ok

    def to_json(self) -> dict:
        q = self.query
        # the query's fields in order, the model (still first) as JSON
        query = {name: getattr(q, name) for name in q._fields}
        query["model"] = model_to_json(q.model)
        return {
            "query": query,
            "classes": [{**class_to_json(x), "text": print_class(x)} for x in self.classes],
            "summary": {
                "checked": self.checked,
                "disagreements": [
                    {
                        "class": class_to_json(d.cls),
                        "text": print_class(d.cls),
                        "operation": d.operation,
                        "library": d.library,
                        "oracle": d.oracle,
                    }
                    for d in self.disagreements
                ],
            },
        }


def crosscheck(
    q: EnumQuery,
    *,
    allow_large: bool = False,
    depth: int | None = None,
    sample: int | None = None,
    seed: int | None = None,
) -> CrosscheckReport:
    """Compare the library classifications with the definitional oracles
    on every class matched by the query.

    ``sample`` keeps a seeded random subset when the query matches more
    classes than requested.  The report lists all disagreements; an
    empty list means the two sides agree everywhere.  ``depth`` bounds
    the orbit searches; rational n >= 9 requires it.  A depth that is not
    an int >= 0, or a sample that is not an int >= 1, raises TypeError or
    ValueError, and a seed that random.Random refuses raises its
    TypeError; every check runs before the scan.
    """
    _check_depth(q.model, depth)
    if sample is not None:
        _check_int(sample, "sample", 1)
        rng = random.Random(seed)
    classes = enumerate_classes(q, allow_large=allow_large)
    if sample is not None and len(classes) > sample:
        classes = sorted(rng.sample(classes, sample), key=lambda x: x.coeffs)
    k0 = q.model.k0_form()
    checks = [
        ("exceptional", lambda x: is_exceptional(x, k0), lambda x: bfs_is_exceptional(x, depth=depth)),
        ("knull", lambda x: is_K_null_spherical(x, k0), lambda x: bfs_is_knull_spherical(x, depth=depth)),
    ]
    if q.predicate == "characteristic":
        units = _unit_squares(q.model)
        checks.append(("characteristic", is_characteristic, lambda x: _is_characteristic_direct(x, units)))
    disagreements = []
    for x in classes:
        for operation, library, oracle in checks:
            lib = library(x)
            orc = oracle(x)
            if lib != orc:
                disagreements.append(Disagreement(x, operation, lib, orc))
    return CrosscheckReport(q, tuple(classes), tuple(disagreements))
