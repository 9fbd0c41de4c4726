"""Exceptional classes, the symplectic cone, and Lagrangian sphere classes.

Cone membership is decided for every n by Cremona reduction of the form
(the reduced-class criterion of Li-Li and Karshon-Kessler); a No names an
exceptional class of nonpositive area.  Rational exceptional classes are
enumerated by solving sum b_i = 3a - 1, sum b_i^2 = a^2 + 1 for
xi = aH - sum b_i E_i: completely for n <= 8, where Cauchy-Schwarz confines
a to a finite window, and for n >= 9 up to a caller-supplied bound on |a|,
keeping the solutions that is_exceptional confirms.  Ruled models have the
closed-form exceptional set {E_i, F - E_i}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import NamedTuple, Optional

from .lattice import (
    RULED,
    FormClass,
    HomClass,
    LatticeModel,
    _gram_product,
    _sparse_class,
    form_pairing,
    is_characteristic,
    pairing,
    reflect,
)
from .reduction import (
    ReflectionWord,
    _conjugate_to_k0,
    _k0_signs,
    _spherical_normal_form,
    is_exceptional,
    is_K_null_spherical,
)

CONE_YES = "yes"
CONE_NO = "no"

_RULED_CONE_NOTE = "positive square and exceptional areas only"


@dataclass(frozen=True)
class ExceptionalSet:
    """The exceptional classes for K, canonically sorted.

    ``complete`` is true exactly when the listing is provably exhaustive:
    rational models with n <= 8 and every ruled model.  Otherwise
    ``degree_bound`` records the |a| cap that was searched.
    """

    model: LatticeModel
    K: FormClass
    classes: tuple
    complete: bool
    degree_bound: Optional[int] = None

    def __iter__(self):
        return iter(self.classes)

    def __len__(self):
        return len(self.classes)

    def __contains__(self, xi):
        return xi in self.classes


def _b_vectors(n, total, square):
    """All integer vectors of length n with the given sum and sum of squares."""
    out = []

    def rec(pos, s, q, prefix):
        r = n - pos
        if r == 0:
            if s == 0 and q == 0:
                out.append(tuple(prefix))
            return
        if s * s > r * q:
            return
        lim = isqrt(q)
        for v in range(-lim, lim + 1):
            q2 = q - v * v
            s2 = s - v
            if s2 * s2 > (r - 1) * q2:
                continue
            prefix.append(v)
            rec(pos + 1, s2, q2, prefix)
            prefix.pop()

    if square >= 0:
        rec(0, total, square, [])
    return out


def _rational_a_window(n):
    # roots of (9-n)a^2 - 6a + (1-n) <= 0, the Cauchy-Schwarz feasibility window
    disc = 9 + (9 - n) * (n - 1)
    root = isqrt(disc) if disc >= 0 else 0
    return -((root - 3) // (9 - n)), (3 + root) // (9 - n)


def _ruled_exceptional(model):
    F = model.unit(1)
    return [E for i in range(1, model.n + 1) for E in (model.E(i), F - model.E(i))]


def enumerate_exceptional(model, K=None, degree_bound=None) -> ExceptionalSet:
    """The set of exceptional classes for K (default K_0).

    K passes the one check of _k0_signs before anything is listed; the
    classes are solved in the frame where K is K_0 and carried back by
    K's signs.  Rational models with n >= 9 require ``degree_bound``; the
    set then holds the exceptional classes with |a| <= degree_bound only.
    """
    if K is None:
        K = model.k0_form()
    signs = _k0_signs(model, K)
    n = model.n
    if model.kind == RULED:
        classes, complete = _ruled_exceptional(model), True
    else:
        complete = n <= 8
        if complete:
            a_lo, a_hi = _rational_a_window(n)
        elif degree_bound is None:
            raise ValueError("degree_bound required for rational models with n >= 9")
        else:
            a_lo, a_hi = -degree_bound, degree_bound
        k0 = model.k0_form()
        classes = []
        for a in range(a_lo, a_hi + 1):
            if (3 * a - 1) ** 2 > n * (a * a + 1):
                continue
            for b in _b_vectors(n, 3 * a - 1, a * a + 1):
                xi = HomClass(model, (a,) + tuple(-v for v in b))
                # from n = 9 on not every solution is exceptional (K_0 at n = 10);
                # the test runs on a copy, so the listed class does not keep
                # the normal form that cremona_reduce leaves on it
                if complete or is_exceptional(HomClass(model, xi.coeffs), k0):
                    classes.append(_conjugate_to_k0(xi, signs))
    for xi in classes:
        if pairing(xi, xi) != -1 or form_pairing(K, xi) != -1:
            raise ArithmeticError(f"enumerated class {xi.coeffs} fails square or K-pairing")
    return ExceptionalSet(
        model=model,
        K=K,
        classes=tuple(sorted(classes, key=lambda x: x.coeffs)),
        complete=complete,
        degree_bound=None if complete else degree_bound,
    )


class ConeResult(NamedTuple):
    """Cone membership verdict with the violating class when negative."""

    verdict: str
    witness: Optional[HomClass]
    note: Optional[str]

    def __bool__(self):
        return self.verdict != CONE_NO


def _cone_decide(model, num, K, closed):
    """Whether the form with integer coefficients ``num`` has positive
    square and positive (``closed``: nonnegative) area on every
    exceptional class.  The conditions do not change when the form is
    scaled, so a form's numerators stand for it.  A No of positive square
    has a witness unless rational n <= 1 and a <= 0.

    Returns (ConeResult, moves): the walk's reflections along
    H - E_{i+1} - E_{j+1} - E_{k+1} as 0-based triples (i, j, k) in order,
    in the frame where K is K_0; on a Yes they carry the form into the
    chamber a >= b_i + b_j + b_k.  Ruled models make no moves.

    K passes the one check of _k0_signs first, so a K that is not K_0
    or a K_delta variant raises whatever the form; the walk runs on the
    numerators after K's sign change, and the witness is carried back.
    """
    signs = _k0_signs(model, K)
    moves = []
    if _gram_product(model, num, num) <= 0:
        return ConeResult(CONE_NO, None, "nonpositive square"), moves

    def violates(area):
        return area < 0 or (area == 0 and not closed)

    if model.kind == RULED:
        for E in _ruled_exceptional(model):
            if violates(_gram_product(model, num, E.coeffs)):
                return ConeResult(CONE_NO, E, None), moves
        return ConeResult(CONE_YES, None, _RULED_CONE_NOTE), moves

    n = model.n
    # the sign change carrying K to K_0, read off the numerators directly
    a, b = num[0], [-s * c for s, c in zip(signs, num[1:])]
    if n < 2 and a <= 0:
        # the forward cone; for n >= 2 the loop finds a witness instead
        return ConeResult(CONE_NO, None, "outside the forward cone"), moves
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
            return ConeResult(CONE_YES, None, None), moves
        triple = order[:3]
        d = a - sum(b[m] for m in triple)
        # each move lowers the positive integer a, so the loop ends
        if not 0 < a + d < a:
            raise ArithmeticError("Cremona move failed to lower the positive H-area")
        a += d
        for m in triple:
            b[m] += d
        moves.append(triple)
    # reflections permute the exceptional classes; undo them on the witness
    for triple in reversed(moves):
        gamma = _sparse_class(model, ((0, 1),) + tuple((m + 1, -1) for m in triple))
        witness = reflect(gamma, witness)
    # the sign change is an involution, so it also carries K_0 back to K
    witness = _conjugate_to_k0(witness, signs)
    if not violates(_gram_product(model, num, witness.coeffs)):
        raise ArithmeticError("cone witness does not violate the cone conditions")
    return ConeResult(CONE_NO, witness, None), moves


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

    The cone is open, and rational forms need a > 0 (the forward cone).
    Ruled verdicts check exactly these conditions and say so in the note.
    """
    if K is None:
        K = tau.model.k0_form()
    return _form_cone(tau, K, closed=False)


class LagrangianResult(NamedTuple):
    """Verdict of the Lagrangian-sphere-class criterion.

    On yes, ``word``/``kind`` hold the reduction certificate for rational
    models (computed after the sign change when K is a K_delta variant).
    On no, ``reason`` names every failed clause.
    """

    yes: bool
    reason: Optional[str]
    word: Optional[ReflectionWord]
    kind: Optional[str]
    area: Fraction
    characteristic: bool

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

    For rational models one Cremona reduction, after the sign change
    that carries K to K_0, decides the spherical clause and gives the
    Yes certificate: ``word`` and ``kind`` are that normal form's.
    """
    model = xi.model
    if tau.model != model:
        raise ValueError("incompatible lattice models")
    if K is None:
        K = model.k0_form()
    signs = _k0_signs(model, K)
    if not _form_cone(tau, K, closed=True):
        raise ValueError("form fails the cone conditions")
    nf = None
    if model.kind == RULED:
        spherical = is_K_null_spherical(xi, K)
    else:
        nf = _spherical_normal_form(xi, K, signs)
        spherical = nf is not None
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
    if tau.model != model:
        raise ValueError("incompatible lattice models")
    if K is None:
        K = model.k0_form()
    if not in_cone(tau, K):
        raise ValueError("form fails the cone conditions")
    pd_k = HomClass(model, K.num)
    B = A - pd_k
    if pairing(A, A) <= 0 or form_pairing(tau, A) <= 0:
        return False
    if pairing(B, B) < 0 or form_pairing(tau, B) <= 0:
        return False
    # A^2 > 0 here, so the closed cone test reduces to A.E >= 0
    return bool(_cone_decide(model, A.coeffs, K, closed=True)[0])
