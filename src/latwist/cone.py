"""Exceptional classes, the symplectic cone, and Lagrangian sphere classes.

Cone membership is decided for every n by Cremona reduction of the form
(the reduced-class criterion of Li-Li and Karshon-Kessler); a No names an
exceptional class of nonpositive area.  The rational exceptional classes
form the twist orbit of E_n (and of H - E_1 - E_2 at n = 2) and are listed
by walking it upward over sorted forms of aH - sum b_i E_i, by the ternary
twists that raise a; the walk reaches every class, since a Cremona
reduction lowers a down to some E_i.  The orbit closes for n <= 8; for
n >= 9 the walk stops at a caller-supplied bound on a.  Ruled models have
the closed-form exceptional set {E_i, F - E_i}.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import combinations
from math import factorial

from .lattice import (
    RULED,
    FormClass,
    HomClass,
    LatticeModel,
    _check_int,
    _check_same_model,
    _Record,
    _gram_product,
    _kept,
    form_pairing,
    is_characteristic,
    pairing,
    reflect,
)
from .reduction import _conjugate_to_k0, _decide, _k0_signs, _ruled_exceptional

CONE_YES = "yes"
CONE_NO = "no"

# the most classes an exceptional listing builds without allow_large
_LISTING_LIMIT = 2_000_000


class ExceptionalSet(_Record):
    """The exceptional classes for K, canonically sorted.

    ``complete`` is true exactly when no ``degree_bound`` capped the
    listing, which is then provably exhaustive: rational models with
    n <= 8 and every ruled model.  Otherwise ``degree_bound`` records the
    |a| cap that was searched.
    """

    _fields = ("model", "K", "classes", "complete", "degree_bound")

    def __init__(self, model: LatticeModel, K: FormClass, classes: tuple, complete: bool,
                 degree_bound: int | None = None):
        self.__dict__.update(model=model, K=K, classes=classes, complete=complete,
                             degree_bound=degree_bound)

    def __iter__(self):
        return iter(self.classes)

    def __len__(self):
        return len(self.classes)

    def __contains__(self, xi):
        return xi in self.classes


def _upward_orbit(n, bound):
    """The sorted forms (a, b_1 >= ... >= b_n) of the classes
    aH - sum b_i E_i reached from E_n by ternary twists that raise a and
    keep it at most ``bound`` (None: no cap).

    The twist along H - E_i - E_j - E_k adds d = a - b_i - b_j - b_k to
    a and to the three b's; it is taken once per distinct value triple.
    """
    starts = [(0,) * n + (-1,)] if n else []
    if n == 2:
        starts.append((1, 1, 1))
    seen = {s for s in starts if bound is None or s[0] <= bound}
    todo = list(seen)
    while todo:
        a, *b = todo.pop()
        for triple in set(combinations(b, 3)):
            d = a - sum(triple)
            if d > 0 and (bound is None or a + d <= bound):
                rest = list(b)
                for v in triple:
                    rest.remove(v)
                state = (a + d, *sorted(rest + [v + d for v in triple], reverse=True))
                if state not in seen:
                    seen.add(state)
                    todo.append(state)
    return seen


def _orderings(values):
    """The distinct orderings of ``values``: inserted in sorted order,
    each copy of a value only after the copies of it already placed."""
    out = [()]
    for v in sorted(values):
        out = [
            p[:i] + (v,) + p[i:]
            for p in out
            for i in range(len(p) - p[::-1].index(v) if v in p else 0, len(p) + 1)
        ]
    return out


def _ordering_count(values):
    """len(_orderings(values)) without listing them: the multinomial
    n! / prod m! over the multiplicities m of the values."""
    count = factorial(len(values))
    for m in Counter(values).values():
        count //= factorial(m)
    return count


def enumerate_exceptional(model, K=None, degree_bound=None, *, allow_large=False) -> ExceptionalSet:
    """The set of exceptional classes for K (default K_0).

    K passes the one check of _k0_signs before anything is listed; the
    classes are walked in the frame where K is K_0 (_upward_orbit) and
    carried back by K's signs.  Rational models with n >= 9 require
    ``degree_bound`` and every rational model accepts one; the set then
    holds the exceptional classes with |a| <= degree_bound only.  A bound
    that is not an int, or is a bool, raises TypeError.  Ruled models take
    none (ValueError).  No class is reduced: the walk only climbs.

    The classes are counted from the walk's sorted forms before any is
    built; unless ``allow_large`` is set, more than 2,000,000 of them
    raise ValueError.
    """
    K, signs = _k0_signs(model, K)
    if degree_bound is not None:
        _check_int(degree_bound, "degree_bound")
    n = model.n
    if model.kind == RULED:
        if degree_bound is not None:
            raise ValueError("degree_bound applies to rational models only")
        classes = _ruled_exceptional(model)
    else:
        if n >= 9 and degree_bound is None:
            raise ValueError("degree_bound required for rational models with n >= 9")
        forms = _upward_orbit(n, degree_bound)
        if sum(_ordering_count(b) for _, *b in forms) > _LISTING_LIMIT and not allow_large:
            raise ValueError("bound exceeds safety limit")
        classes = [
            _conjugate_to_k0(HomClass(model, (a,) + c), signs)
            for a, *b in forms
            for c in _orderings([-v for v in b])
        ]
    for xi in classes:
        if pairing(xi, xi) != -1 or _gram_product(model, K.num, xi.coeffs) != -1:
            raise ArithmeticError(f"enumerated class {xi.coeffs} fails square or K-pairing")
    return ExceptionalSet(
        model=model,
        K=K,
        classes=tuple(sorted(classes, key=lambda x: x.coeffs)),
        complete=degree_bound is None,
        degree_bound=degree_bound,
    )


class ConeResult(namedtuple("ConeResult", "verdict witness note")):
    """Cone membership verdict with the violating class when negative.

    ``verdict`` is CONE_YES or CONE_NO; ``witness``, a HomClass or None;
    ``note``, a str or None.
    """

    __slots__ = ()

    def __bool__(self):
        return self.verdict != CONE_NO


_YES = ConeResult(CONE_YES, None, None)
_RULED_YES = ConeResult(CONE_YES, None, "positive square and exceptional areas only")


class _Walk(namedtuple("_Walk", "model open closed moves chamber")):
    """A chamber walk under K_0 (see _walk): the open and closed
    ConeResults, the moves as 0-based index tuples in order, and the
    chamber form (a, b) or (t, f, b) they reach, b in index order; None
    for a rational form outside the closed cone.  Without __slots__ the
    record has the vars() that its kept frame needs."""

    @_kept
    def frame(self):
        """(frame, reached), None without a chamber: the chronological
        K_0-twists whose product psi carries the form to its chamber with
        the b_i ascending, the moves' cores and then the transpositions of
        a selection sort on the distinct keys (b_i, i), and psi num."""
        if self.chamber is None:
            return None
        model = self.model
        off = model.e_offset
        frame = _cores(model, self.moves)
        *head, b = self.chamber
        keys = [(v, i) for i, v in enumerate(b)]
        for p, key in enumerate(sorted(keys)):
            if keys[p] != key:
                q = keys.index(key, p + 1)
                keys[p], keys[q] = key, keys[p]
                frame.append(model._classes[(p + off, 1), (q + off, -1)])
        return frame, tuple(head) + tuple(-v for v, _ in keys)


def _cores(model, moves):
    # the table classes H (ruled: F) - sum E_{m+1} of moves, keyed in index order
    off, classes = model.e_offset, model._classes
    return [classes[((off - 1, 1),) + tuple((m + off, -1) for m in sorted(move))] for move in moves]


def _walk(model, num) -> _Walk:
    """The chamber walk under K_0 of the form with integer numerators
    ``num``; the cone conditions (positive square, positive or, closed,
    nonnegative area on every exceptional class) read the same on them.
    A K_delta caller moves the form by _conjugate_to_k0 first.  A No of
    positive square has a witness unless rational n <= 1 and a <= 0, or
    ruled n = 0 and t, f < 0.  Rational forms: with the b_i sorted, the
    walk stops at the closed No, E_n or else H - E_1 - E_2 of negative
    area, or at the Yes a >= b_1 + b_2 + b_3, and else reflects along
    H - E_1 - E_2 - E_3; the open walk moves alike up to its first such
    class of area <= 0, the open No noted on the way.  Ruled forms: the
    exceptional areas decide, and the D_n walk flips along F - E_i - E_j
    while the two largest b_i (ties in index order) have b_i + b_j > t,
    sending b_i to t - b_j and b_j to t - b_i.  Each flip lowers sum b_i
    within the finite set of permuted, negated b_i - t/2, so it ends with
    b_i + b_j <= t for every pair."""
    n = model.n
    gate = None
    if _gram_product(model, num, num) <= 0:
        gate = ConeResult(CONE_NO, None, "nonpositive square")
    elif n < 3 - model.e_offset and min(num[:model.e_offset]) <= 0:
        # the forward cone, a > 0 (rational n <= 1) or t, f > 0 (ruled
        # n = 0); from there on a witness rules the other side out
        gate = ConeResult(CONE_NO, None, "outside the forward cone")
    if model.kind == RULED:
        t, f, b = num[0], num[1], [-c for c in num[2:]]
        moves = []
        while n >= 2:
            i, j = sorted(sorted(range(n), key=b.__getitem__, reverse=True)[:2])
            d = t - b[i] - b[j]
            if d >= 0:
                break
            f, b[i], b[j] = f + d, b[i] + d, b[j] + d
            moves.append((i, j))
        if gate is not None:
            return _Walk(model, gate, gate, moves, (t, f, b))
        # the areas of E_i and F - E_i, b_i and t - b_i, are least at the
        # largest or the smallest b_i; a No names the first area <= 0
        # (open) or < 0 (closed) in _ruled_exceptional's order
        e = num[2:]
        least = min(-max(e), t + min(e)) if e else 1
        areas = [x for c in e for x in (-c, t + c)] if least <= 0 else None
        opened, closed = (_RULED_YES if least > most else ConeResult(
            CONE_NO, _ruled_exceptional(model)[next(j for j, x in enumerate(areas) if x <= most)], None)
            for most in (0, -1))
        return _Walk(model, opened, closed, moves, (t, f, b))
    if gate is not None:
        return _Walk(model, gate, gate, [], None)

    a, b = num[0], [-c for c in num[1:]]
    # a No is (whether it is E_n, the sorted order, the moves made before)
    moves, first, last, chamber = [], None, None, None
    while True:
        order = sorted(range(n), key=b.__getitem__, reverse=True)
        low, high = b[order[-1]] if n else 1, a - sum(b[i] for i in order[:2])
        if first is None and min(low, high) <= 0:
            first = low <= 0, order, len(moves)
        if min(low, high) < 0:
            last = low < 0, order, len(moves)
            break
        if n < 3 or high >= b[order[2]]:
            chamber = (a, b)
            break
        triple = order[:3]
        d = high - b[triple[2]]
        # each move lowers the positive integer a, so the loop ends
        if not 0 < a + d < a:
            raise ArithmeticError("Cremona move failed to lower the positive H-area")
        a += d
        for m in triple:
            b[m] += d
        moves.append(triple)
    # areas are integers: the open No's is at most 0, the closed No's -1,
    # and a No that answers both questions meets the closed bound
    opened = closed = _YES
    if first is not None:
        opened = _cone_no(model, num, moves, first, -1 if first == last else 0)
    if last is not None:
        closed = opened if last == first else _cone_no(model, num, moves, last, -1)
    return _Walk(model, opened, closed, moves, chamber)


def _cone_no(model, num, moves, no, most) -> ConeResult:
    # the witness of a No, carried back through the moves, with its area
    is_e, order, made = no
    witness = model._classes[((order[-1] + 1, 1),)] if is_e else _cores(model, [order[:2]])[0]
    # reflections permute the exceptional classes; undo them on the witness
    for core in reversed(_cores(model, moves[:made])):
        witness = reflect(core, witness)
    if _gram_product(model, num, witness.coeffs) > most:
        raise ArithmeticError("cone witness does not violate the cone conditions")
    return ConeResult(CONE_NO, witness, None)


def _form_walk(tau: FormClass) -> _Walk:
    # tau's walk under K_0, walked once and kept outside tau's fields
    walk = vars(tau).get("_cone_walk")
    if walk is None:
        walk = tau.__dict__["_cone_walk"] = _walk(tau.model, tau.num)
    return walk


def in_cone(tau: FormClass, K=None) -> ConeResult:
    """Whether tau^2 > 0 and tau(E) > 0 for every exceptional class E.

    The cone is open, and rational forms need a > 0, ruled forms at n = 0
    t > 0 and f > 0 (the forward cone).
    Ruled verdicts check exactly these conditions and say so in the note.
    The verdict is read from the kept walk of tau moved to K_0, and a
    K_delta No's witness is moved back; the walk's frame is not built.
    """
    _, signs = _k0_signs(tau.model, K)
    res = _form_walk(_conjugate_to_k0(tau, signs)).open
    if res.witness is not None and -1 in signs:
        res = res._replace(witness=_conjugate_to_k0(res.witness, signs))
    return res


class LagrangianResult(namedtuple("LagrangianResult", "yes reason word kind area characteristic")):
    """Verdict of the Lagrangian-sphere-class criterion.

    On yes, ``word``/``kind`` hold the reduction certificate for rational
    models (of the class moved to K_0 when K is a K_delta variant):
    a ReflectionWord and a normal-form kind, else None.  On no,
    ``reason`` names every failed clause.  ``area`` is the exact Fraction
    tau-area and ``characteristic`` a bool.
    """

    __slots__ = ()

    def __bool__(self):
        return self.yes


def is_lagrangian_spherical(xi: HomClass, tau: FormClass, K=None) -> LagrangianResult:
    """Yes iff xi is K-null spherical and has tau-area zero.

    tau must satisfy the closed cone conditions: positive square and
    nonnegative area on every exceptional class.  Boundary forms are
    admitted because a zero-area exceptional class does not interfere
    with either clause of the criterion.  xi and tau are moved to K_0 at
    entry.  The closed verdict is read from tau's kept walk, so tau is
    walked once for many classes and for an in_cone before them.

    The spherical clause is reduction._decide on the moved xi: for
    rational models one Cremona reduction decides it and gives the Yes
    certificate, ``word`` and ``kind`` being that normal form's; for
    ruled models it is the x.F = 0 rule, with no certificate.  The area
    and the parity are read from the caller's xi and tau.
    """
    model = xi.model
    _check_same_model(tau.model, model)
    _, signs = _k0_signs(model, K)
    if not _form_walk(_conjugate_to_k0(tau, signs)).closed:
        raise ValueError("form fails the cone conditions")
    spherical, nf = _decide(_conjugate_to_k0(xi, signs), "knull")
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


def inflation_admissible(A: HomClass, tau: FormClass, K=None) -> bool:
    """The four inflation hypotheses, evaluated exactly.

    A^2 > 0, tau(A) > 0, A - PD(K) has nonnegative square and positive
    tau-value, and A.E >= 0 for every exceptional class E; the last and
    tau's cone check are asked of A and tau moved to K_0.
    """
    model = A.model
    _check_same_model(tau.model, model)
    K, signs = _k0_signs(model, K)
    if not _form_walk(_conjugate_to_k0(tau, signs)).open:
        raise ValueError("form fails the cone conditions")
    B = A - HomClass(model, K.num)
    # tau's denominator is positive, so its numerators give the area signs
    if pairing(A, A) <= 0 or _gram_product(model, tau.num, A.coeffs) <= 0:
        return False
    if pairing(B, B) < 0 or _gram_product(model, tau.num, B.coeffs) <= 0:
        return False
    # A^2 > 0 here, so the closed cone test reduces to A.E >= 0
    return bool(_walk(model, _conjugate_to_k0(A, signs).coeffs).closed)
