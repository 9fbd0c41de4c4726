"""Genus formulas, reduced classes, and Cremona reduction with certificates.

The reduction drives the H-coefficient of a rational-model class down by
reflections along H-E_i-E_j-E_k (written Gamma below) and transpositions
along E_i-E_j, recording every generator so the result carries a checkable
word.  Square -1 classes with K-pairing -1 end at a basis class (or at
H-E_i-E_j when n = 2), square -2 classes with K-pairing 0 end at a binary
class E_i-E_j or a ternary class H-E_i-E_j-E_k; everything else ends at a
reduced class, at a negative-coefficient certificate of non-sphericality,
or at an explicit Irreducible report.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional

from .lattice import (
    _ADMISSIBLE_SQUARES,
    _check_same_model,
    _gram_product,
    _mat_reflect,
    _class_table,
    RATIONAL,
    RULED,
    FormClass,
    HomClass,
    LatticeModel,
    form_pairing,
    mat_identity,
    mat_vec,
    pairing,
)

KIND_ZERO = "Zero"
KIND_MINUS_BASIS = "PlusMinusBasisE"
KIND_BINARY = "Binary"
KIND_TERNARY = "Ternary"
KIND_EXC_EI = "ExceptionalEi"
KIND_EXC_HEIEJ = "ExceptionalHEiEj"
KIND_REDUCED = "Reduced"
KIND_NEGATIVE = "NegativeCoefficient"
KIND_IRREDUCIBLE = "Irreducible"

ALL_KINDS = frozenset(
    {
        KIND_ZERO,
        KIND_MINUS_BASIS,
        KIND_BINARY,
        KIND_TERNARY,
        KIND_EXC_EI,
        KIND_EXC_HEIEJ,
        KIND_REDUCED,
        KIND_NEGATIVE,
        KIND_IRREDUCIBLE,
    }
)

SPHERICAL_KINDS = frozenset({KIND_BINARY, KIND_TERNARY})


@dataclass(frozen=True)
class ReflectionWord:
    """An ordered product of reflections along admissible classes.

    ``matrix`` is the product of the generator reflection matrices in
    listed order, acting on coefficient column vectors.  Under that
    convention the last listed generator acts first on a class.

    Construction checks each generator's model and admissible square.
    The square is read from the one kept on the generator, so a
    generator from the shared class table (every twist core the library
    builds) has its square computed once per process, and the check is
    O(L) for L generators after that.  The matrix is built on first
    read, by applying the generators' reflections to the identity from
    last to first, and then kept.  Each step rewrites only the rows in
    its generator's support, O(L r) in all; the entries need no check,
    because a product of reflections on the identity stays integral.
    """

    model: LatticeModel
    generators: tuple

    def __post_init__(self):
        model = self.model
        for g in self.generators:
            if g.model is not model and g.model != model:
                raise ValueError("incompatible lattice models")
            if g._square not in _ADMISSIBLE_SQUARES:
                raise ValueError("reflection undefined for this square")

    @cached_property
    def matrix(self) -> tuple:
        m = mat_identity(self.model.rank)
        for g in reversed(self.generators):
            m = _mat_reflect(g, m)
        return m

    @staticmethod
    def from_applied(model: LatticeModel, applied) -> "ReflectionWord":
        """Build a word from generators listed in application order."""
        return ReflectionWord(model, tuple(reversed(tuple(applied))))

    def apply(self, x: HomClass) -> HomClass:
        if x.model != self.model:
            raise ValueError("incompatible lattice models")
        return HomClass(self.model, mat_vec(self.matrix, x.coeffs))

    def inverse(self) -> "ReflectionWord":
        return ReflectionWord(self.model, tuple(reversed(self.generators)))

    def __mul__(self, other: "ReflectionWord") -> "ReflectionWord":
        if other.model != self.model:
            raise ValueError("incompatible lattice models")
        return ReflectionWord(self.model, self.generators + other.generators)

    def __len__(self):
        return len(self.generators)


@dataclass(frozen=True)
class NormalForm:
    """Outcome of cremona_reduce.

    word.matrix applied to the input class equals the representative,
    negated when sign_flipped is set.  The representative is stored with
    its first nonzero coefficient positive.
    """

    kind: str
    representative: HomClass
    word: ReflectionWord
    sign_flipped: bool

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown normal form kind {self.kind!r}")


def eta_K(e: HomClass, K: FormClass) -> Fraction:
    """The K-symplectic genus (K(e) + e.e)/2 + 1."""
    _check_same_model(K, e)
    k = _gram_product(e.model, K.num, e.coeffs)
    return Fraction(k + (pairing(e, e) + 2) * K.den, 2 * K.den)


def gt_dimension(e: HomClass, K: FormClass) -> Fraction:
    """Expected moduli dimension (-K(e) + e.e)/2."""
    _check_same_model(K, e)
    k = _gram_product(e.model, K.num, e.coeffs)
    return Fraction(-k + pairing(e, e) * K.den, 2 * K.den)


def _sorted_b(coeffs):
    """H-coefficient and the b_i of a = aH - sum b_i E_i, b descending."""
    return coeffs[0], sorted((-c for c in coeffs[1:]), reverse=True)


def _defect(a, b):
    # absent b_2, b_3 count as zero when n < 3
    return a - sum(b[:3])


def _is_reduced(coeffs) -> bool:
    a, b = _sorted_b(coeffs)
    if a < 0 or (b and b[-1] < 0):
        return False
    return _defect(a, b) >= 0


def is_reduced(xi: HomClass) -> bool:
    """a >= 0, all b_i >= 0, and a >= b_1 + b_2 + b_3 after sorting."""
    if xi.model.kind != RATIONAL:
        raise ValueError("reduced form defined for rational model only")
    return _is_reduced(xi.coeffs)


def _match_terminal(coeffs, n):
    """Return the terminal pattern kind of a rational class, or None.

    Patterns: 0, +-E_i, +-(E_i-E_j), +-(H-E_i-E_j) when n = 2 only,
    +-(H-E_i-E_j-E_k).  The sign is not normalized here.
    """
    a = coeffs[0]
    nonzero = [c for c in coeffs[1:] if c]
    if a == 0:
        if not nonzero:
            return KIND_ZERO
        if len(nonzero) == 1 and abs(nonzero[0]) == 1:
            return KIND_EXC_EI if nonzero[0] > 0 else KIND_MINUS_BASIS
        if len(nonzero) == 2 and sorted(nonzero) == [-1, 1]:
            return KIND_BINARY
        return None
    if abs(a) == 1:
        if len(nonzero) == 2 and nonzero == [-a, -a] and n == 2:
            return KIND_EXC_HEIEJ
        if len(nonzero) == 3 and nonzero == [-a, -a, -a]:
            return KIND_TERNARY
    return None


def _normalize_sign(xi: HomClass):
    """Representative with first nonzero coefficient positive, plus flip bit."""
    for c in xi.coeffs:
        if c > 0:
            return xi, False
        if c < 0:
            return -xi, True
    return xi, False


_GAMMA_CAP_SLACK = 4
_GAMMA_TERMS = ((0, 1), (1, -1), (2, -1), (3, -1))


def cremona_reduce(xi: HomClass) -> NormalForm:
    """Reduce a rational-model class to a terminal pattern with a word.

    The loop checks terminal patterns, flips the whole class when the
    H-coefficient is negative (recorded in sign_flipped, not as a
    generator), sorts the b_i by explicit transposition reflections,
    stops with NegativeCoefficient when a > 0 with some b_i < 0 and
    nonnegative defect, and otherwise applies Gamma on the three largest
    b_i while the defect is negative.  A generous iteration cap and a
    stuck-state check return Irreducible instead of looping on inputs
    outside the classes the terminal patterns cover.

    The normal form is kept on xi, so is_exceptional,
    is_K_null_spherical and a later cremona_reduce of the same class
    object share one reduction under K_0; equality and hash still read
    the coefficients only.  A result that hit the cap is not kept, so
    every call on such a class reduces it again and warns at its caller.
    """
    nf = vars(xi).get("_normal_form")
    if nf is not None:
        return nf
    if xi.model.kind != RATIONAL:
        raise ValueError("Cremona reduction defined for rational model only")
    nf, capped = _cremona_reduce(xi)
    if capped:
        warnings.warn(
            "Cremona reduction hit its iteration cap; reporting Irreducible",
            RuntimeWarning,
            stacklevel=2,
        )
    else:
        object.__setattr__(xi, "_normal_form", nf)
    return nf


def _cremona_reduce(xi: HomClass) -> tuple:
    """The reduction loop of cremona_reduce: (normal form, whether the
    iteration cap was hit).

    The loop runs on the coefficient list, applying each reflection on
    its support: a transposition swaps two coefficients, and Gamma moves
    only a and b_1, b_2, b_3.  The generators come from the model's
    shared class table, fetched once per call, so the loop builds one
    class, the representative.
    """
    model = xi.model
    classes = _class_table(model)
    n = model.n
    cur = list(xi.coeffs)
    flipped = False
    applied = []
    gamma_cap = abs(cur[0]) + n + _GAMMA_CAP_SLACK
    gamma_count = 0

    def finish(kind, capped=False):
        rep, extra = _normalize_sign(HomClass(model, tuple(cur)))
        nf = NormalForm(
            kind=kind,
            representative=rep,
            word=ReflectionWord.from_applied(model, applied),
            sign_flipped=flipped ^ extra,
        )
        return nf, capped

    while True:
        kind = _match_terminal(cur, n)
        if kind is not None:
            if flipped:
                # the flag tracks the net sign, so a flipped -E_i is a
                # net +E_i and vice versa
                if kind == KIND_EXC_EI:
                    kind = KIND_MINUS_BASIS
                elif kind == KIND_MINUS_BASIS:
                    kind = KIND_EXC_EI
            return finish(kind)
        a = cur[0]
        if a < 0:
            cur = [-c for c in cur]
            flipped = not flipped
            continue
        # sort b descending with explicit transpositions; the reflection
        # along E_i - E_j swaps the coefficients of E_i and E_j
        for pos in range(1, n + 1):
            best = pos
            for q in range(pos + 1, n + 1):
                if cur[q] < cur[best]:
                    best = q
            if best != pos:
                applied.append(classes[(pos, 1), (best, -1)])
                cur[pos], cur[best] = cur[best], cur[pos]
        if _is_reduced(cur):
            return finish(KIND_REDUCED)
        b = [-c for c in cur[1:]]
        d = _defect(a, b)
        if a > 0 and b and b[-1] < 0 and d >= 0:
            return finish(KIND_NEGATIVE)
        if d < 0 and n >= 3:
            if gamma_count >= gamma_cap:
                return finish(KIND_IRREDUCIBLE, capped=True)
            gamma_count += 1
            applied.append(classes[_GAMMA_TERMS])
            # Gamma = H - E_1 - E_2 - E_3 has Gamma.x = d and square -2,
            # so the reflection adds d to a and to b_1, b_2, b_3
            cur[0] += d
            for i in (1, 2, 3):
                cur[i] -= d
            continue
        # no move applies: either n < 3 with negative defect or a stuck
        # a = 0 class; both sit outside the covered terminal patterns
        return finish(KIND_IRREDUCIBLE)


def _k0_signs(model: LatticeModel, K: FormClass) -> tuple:
    """The canonical-class check of every routine that takes a K.

    Rational K may be K_0 or a K_delta variant -3H + sum +-E_i; ruled K
    must be K_0.  Returns the E-coefficients of K, which for those
    classes are the signs of the isometry carrying K to K_0 (all +1 for
    K_0); raises ValueError for any other K, or for a K of another model.
    """
    if K.model != model:
        raise ValueError("incompatible lattice models")
    if model.kind == RULED:
        if K != model.k0_form():
            raise ValueError("conjugate to K_0 first")
    elif K.den != 1 or K.num[0] != -3 or any(c not in (1, -1) for c in K.num[1:]):
        raise ValueError("K must be K_0 or a K_delta variant; conjugate to K_0 first")
    return K.num[model.e_offset:]


def _conjugate_to_k0(xi: HomClass, signs: tuple) -> HomClass:
    """Map xi by the sign isometry with the E-signs from _k0_signs.

    Under K_0 every sign is +1 and xi itself comes back, so a normal form
    kept on it serves the caller's later reductions of the same object.
    """
    if -1 not in signs:
        return xi
    off = xi.model.e_offset
    coeffs = xi.coeffs[:off] + tuple(s * c for s, c in zip(signs, xi.coeffs[off:]))
    return HomClass(xi.model, coeffs)


def is_exceptional(xi: HomClass, K: FormClass) -> bool:
    """Square -1, K-pairing -1, and reduction to +E_i (or +(H-E_i-E_j) at n=2).

    K passes the one check of _k0_signs: rational K may be K_0 or any
    K_delta variant, ruled K must be K_0, where the exceptional classes
    are exactly E_i and F-E_i.
    """
    signs = _k0_signs(xi.model, K)
    if pairing(xi, xi) != -1 or form_pairing(K, xi) != -1:
        return False
    if xi.model.kind == RULED:
        t, f = xi.coeffs[0], xi.coeffs[1]
        nonzero = [c for c in xi.coeffs[2:] if c]
        if t != 0 or len(nonzero) != 1:
            return False
        return (f, nonzero[0]) in ((0, 1), (1, -1))
    nf = cremona_reduce(_conjugate_to_k0(xi, signs))
    return nf.kind in (KIND_EXC_EI, KIND_EXC_HEIEJ) and not nf.sign_flipped


def is_K_null_spherical(xi: HomClass, K: FormClass) -> bool:
    """Square -2, K-pairing 0, and equivalence to a binary or ternary class.

    Rational K may be K_0 or any K_delta variant; ruled K must be K_0,
    where the list is +-(F-E_i-E_j) and +-(E_i-E_j).
    """
    signs = _k0_signs(xi.model, K)
    if xi.model.kind == RULED:
        if pairing(xi, xi) != -2 or form_pairing(K, xi) != 0:
            return False
        t, f = xi.coeffs[0], xi.coeffs[1]
        nonzero = [c for c in xi.coeffs[2:] if c]
        if t != 0 or len(nonzero) != 2:
            return False
        if f == 0:
            return sorted(nonzero) == [-1, 1]
        return abs(f) == 1 and nonzero == [-f, -f]
    return _spherical_normal_form(xi, K, signs) is not None


def _spherical_normal_form(xi: HomClass, K: FormClass, signs: tuple) -> Optional[NormalForm]:
    """The Binary or Ternary normal form of a rational K-null spherical
    class, reduced after the sign change that carries K to K_0; None when
    xi is not K-null spherical.  ``signs`` are K's, from _k0_signs."""
    if pairing(xi, xi) != -2 or _gram_product(xi.model, K.num, xi.coeffs) != 0:
        return None
    nf = cremona_reduce(_conjugate_to_k0(xi, signs))
    return nf if nf.kind in SPHERICAL_KINDS else None


class EtaBound(NamedTuple):
    value: Fraction
    exact: bool


def eta_lower_bound(e: HomClass) -> EtaBound:
    """Certified lower bound for the symplectic genus of e.

    Maximizes eta over the canonical classes K_delta, which all pair the
    class into their cones when the H-coefficient is positive.  The max
    separates per coordinate, so it is computed in closed form.  The
    bound is exact when e is reduced, reported in the flag.
    """
    if e.model.kind != RATIONAL:
        raise ValueError("eta bound defined for rational model only")
    a = e.coeffs[0]
    if a <= 0:
        raise ValueError("K_delta family not certified for nonpositive H-coefficient")
    best_k = -3 * a + sum(abs(c) for c in e.coeffs[1:])
    value = Fraction(best_k + pairing(e, e) + 2, 2)
    return EtaBound(value, is_reduced(e))
