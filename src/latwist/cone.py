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
    _check_same_model,
    _Record,
    _gram_product,
    form_pairing,
    is_characteristic,
    pairing,
    reflect,
)
from .reduction import _conjugate_to_k0, _decide, _k0_signs, _ruled_exceptional

CONE_YES = "yes"
CONE_NO = "no"

_RULED_CONE_NOTE = "positive square and exceptional areas only"

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
    if degree_bound is not None and type(degree_bound) is not int:
        # 2.5 and True would compare inside the walk and come back as the
        # set's bound; "2" would fail there
        raise TypeError("degree_bound must be an integer")
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


def _cone_decide(model, num, K, closed):
    """Whether the form with integer coefficients ``num`` has positive
    square and positive (``closed``: nonnegative) area on every
    exceptional class.  The conditions do not change when the form is
    scaled, so a form's numerators stand for it.  A No of positive square
    has a witness unless rational n <= 1 and a <= 0, or ruled n = 0 and
    t, f < 0.

    Returns (ConeResult, moves, chamber): the walk's reflections along
    H - E_{i+1} - E_{j+1} - E_{k+1} as 0-based triples (i, j, k) in order,
    in the frame where K is K_0; on a Yes they carry the form into the
    chamber a >= b_i + b_j + b_k, and ``chamber`` is the form (a, b)
    they reach there, aH - sum b_i E_i in index order.  Ruled models make
    no moves, and chamber is None on a No and on a ruled Yes.

    K passes the one check of _k0_signs first, so a K that is not K_0
    or a K_delta variant raises whatever the form; the walk runs on the
    numerators after K's sign change, and the witness is carried back.
    """
    K, signs = _k0_signs(model, K)
    moves = []
    if _gram_product(model, num, num) <= 0:
        return ConeResult(CONE_NO, None, "nonpositive square"), moves, None

    def violates(area):
        return area < 0 or (area == 0 and not closed)

    if model.kind == RULED:
        if model.n == 0 and (num[0] <= 0 or num[1] <= 0):
            # with no exceptional class the square alone admits -T-F;
            # from n = 1 on the areas of E_1 and F - E_1 rule it out
            return ConeResult(CONE_NO, None, "outside the forward cone"), moves, None
        for E in _ruled_exceptional(model):
            if violates(_gram_product(model, num, E.coeffs)):
                return ConeResult(CONE_NO, E, None), moves, None
        return ConeResult(CONE_YES, None, _RULED_CONE_NOTE), moves, None

    n = model.n
    # the sign change carrying K to K_0, read off the numerators directly
    a, b = num[0], [-s * c for s, c in zip(signs, num[1:])]
    if n < 2 and a <= 0:
        # the forward cone; for n >= 2 the loop finds a witness instead
        return ConeResult(CONE_NO, None, "outside the forward cone"), moves, None
    # with the b_i sorted: No once E_n or H - E_1 - E_2 has nonpositive area,
    # Yes once a >= b_1 + b_2 + b_3, else reflect along H - E_1 - E_2 - E_3
    while True:
        order = sorted(range(n), key=b.__getitem__, reverse=True)
        if n and violates(b[order[-1]]):
            witness = model.E(order[-1] + 1)
            break
        top = sum(b[i] for i in order[:2])
        if violates(a - top):
            witness = model.unit(0) - model.E(order[0] + 1) - model.E(order[1] + 1)
            break
        if n < 3 or a >= top + b[order[2]]:
            return ConeResult(CONE_YES, None, None), moves, (a, b)
        triple = order[:3]
        d = a - sum(b[m] for m in triple)
        # each move lowers the positive integer a, so the loop ends
        if not 0 < a + d < a:
            raise ArithmeticError("Cremona move failed to lower the positive H-area")
        a += d
        for m in triple:
            b[m] += d
        moves.append(triple)
    # reflections permute the exceptional classes; undo them on the witness.
    # A move lists its triple by b-order, so the table key sorts it.
    classes = model._classes
    for triple in reversed(moves):
        witness = reflect(classes[((0, 1),) + tuple((m + 1, -1) for m in sorted(triple))], witness)
    # the sign change is an involution, so it also carries K_0 back to K
    witness = _conjugate_to_k0(witness, signs)
    if not violates(_gram_product(model, num, witness.coeffs)):
        raise ArithmeticError("cone witness does not violate the cone conditions")
    return ConeResult(CONE_NO, witness, None), moves, None


def _chamber_frame(model, num):
    """(frame, chamber): the chronological K_0-twists whose product psi
    carries the form with numerators ``num`` into its chamber with the
    b_i ascending, and the numerators psi num it reaches there; None when
    a rational form is not in the symplectic cone.

    Rational forms: the ternary cores are the moves of the open cone
    walk, which also hands back the reduced form they reach.  Ruled
    forms tT + fF - sum b_i E_i: while the two largest b_i, ties taken
    in index order, have b_i + b_j > t, the twist along F - E_i - E_j
    sends b_i to t - b_j and b_j to t - b_i.  Each flip lowers sum b_i,
    and the twists permute and negate the b_i - t/2 within a finite set,
    so the walk ends, at every form, with b_i + b_j <= t for every pair.
    The transpositions after them sort the b_i ascending, ties kept in
    index order.
    """
    n, off = model.n, model.e_offset
    classes = model._classes
    if model.kind == RULED:
        t, f, b = num[0], num[1], [-c for c in num[off:]]
        frame = []
        while n >= 2:
            i, j = sorted(sorted(range(n), key=b.__getitem__, reverse=True)[:2])
            d = t - b[i] - b[j]
            if d >= 0:
                break
            f += d
            b[i] += d
            b[j] += d
            frame.append(classes[(1, 1), (i + off, -1), (j + off, -1)])
        head = (t, f)
    else:
        res, moves, chamber = _cone_decide(model, num, model.k0_form(), closed=False)
        if not res:
            return None
        frame = [classes[((0, 1),) + tuple((m + 1, -1) for m in sorted(t))] for t in moves]
        head, b = chamber[:1], chamber[1]
    # the transpositions of a selection sort on (b_i, i); E_p - E_q swaps
    # coefficients p and q.  The keys are distinct, so the p-th sorted key
    # is the least of keys[p:] and has one place
    keys = [(v, i) for i, v in enumerate(b)]
    for p, key in enumerate(sorted(keys)):
        if keys[p] != key:
            q = keys.index(key, p + 1)
            keys[p], keys[q] = key, keys[p]
            frame.append(classes[(p + off, 1), (q + off, -1)])
    return frame, head + tuple(-v for v, _ in keys)


def _form_cone(tau: FormClass, K: FormClass, closed: bool) -> ConeResult:
    """_cone_decide on a form, decided once per (K, closed) and kept on tau.

    An open Yes also answers the closed question, whose conditions are
    weaker; both verdicts are the same ConeResult.
    """
    verdicts = tau._cone_verdicts
    res = verdicts.get((K, closed))
    if res is None:
        res = verdicts.get((K, False)) if closed else None
        if not res:
            res = verdicts[K, closed] = _cone_decide(tau.model, tau.num, K, closed)[0]
    return res


def in_cone(tau: FormClass, K=None) -> ConeResult:
    """Whether tau^2 > 0 and tau(E) > 0 for every exceptional class E.

    The cone is open, and rational forms need a > 0, ruled forms at n = 0
    t > 0 and f > 0 (the forward cone).
    Ruled verdicts check exactly these conditions and say so in the note.
    """
    if K is None:
        K = tau.model.k0_form()
    return _form_cone(tau, K, closed=False)


class LagrangianResult(namedtuple("LagrangianResult", "yes reason word kind area characteristic")):
    """Verdict of the Lagrangian-sphere-class criterion.

    On yes, ``word``/``kind`` hold the reduction certificate for rational
    models (computed after the sign change when K is a K_delta variant):
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
    with either clause of the criterion.  The cone verdict is kept on
    tau, so testing many classes against one form decides it once, and
    an earlier in_cone Yes on tau already answers it.

    The spherical clause is reduction._decide on the K checked at entry:
    for rational models one Cremona reduction, after the sign change
    that carries K to K_0, decides it and gives the Yes certificate,
    ``word`` and ``kind`` being that normal form's; for ruled models it
    is the x.F = 0 rule, with no certificate.
    """
    model = xi.model
    _check_same_model(tau.model, model)
    K, signs = _k0_signs(model, K)
    if not _form_cone(tau, K, closed=True):
        raise ValueError("form fails the cone conditions")
    spherical, nf = _decide(xi, K, signs, "knull")
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
    tau-value, and A.E >= 0 for every exceptional class E.
    """
    model = A.model
    _check_same_model(tau.model, model)
    if K is None:
        K = model.k0_form()
    if not in_cone(tau, K):
        raise ValueError("form fails the cone conditions")
    pd_k = HomClass(model, K.num)
    B = A - pd_k
    # tau's denominator is positive, so its numerators give the area signs
    if pairing(A, A) <= 0 or _gram_product(model, tau.num, A.coeffs) <= 0:
        return False
    if pairing(B, B) < 0 or _gram_product(model, tau.num, B.coeffs) <= 0:
        return False
    # A^2 > 0 here, so the closed cone test reduces to A.E >= 0
    return bool(_cone_decide(model, A.coeffs, K, closed=True)[0])
