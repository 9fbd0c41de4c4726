"""Cremona reduction with certificates and the class predicates.

The reduction drives the H-coefficient of a rational-model class down by
reflections along H-E_i-E_j-E_k (written Gamma below) and transpositions
along E_i-E_j, recording every generator so the result carries a checkable
word.  Square -1 classes with K-pairing -1 end at a basis class (or at
H-E_i-E_j when n = 2), square -2 classes with K-pairing 0 end at a binary
class E_i-E_j or a ternary class H-E_i-E_j-E_k; everything else ends at a
reduced class, at a negative-coefficient certificate of non-sphericality,
or at an explicit Irreducible report.

is_exceptional, is_K_null_spherical and the spherical clause of
cone.is_lagrangian_spherical are one classifier, _decide: a gate on square
and K_0-pairing from one table, then the ruled x.F = 0 rule or one
reduction.  A routine that takes a K asks its K_delta question in K_0,
after moving its input by the sign isometry (_conjugate_to_k0).
"""

from __future__ import annotations

import warnings
from operator import mul

from .lattice import (
    _ADMISSIBLE_SQUARES,
    _check_same_model,
    _gram_product,
    _kept,
    _mat_reflect,
    _Record,
    RATIONAL,
    RULED,
    FormClass,
    HomClass,
    LatticeModel,
    mat_identity,
    mat_vec,
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


class ReflectionWord(_Record):
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

    _fields = ("model", "generators")

    def __init__(self, model: LatticeModel, generators: tuple):
        for g in generators:
            # a word's generators share its model object, so the common
            # case costs no call
            if g.model is not model:
                _check_same_model(g.model, model)
            if g._square not in _ADMISSIBLE_SQUARES:
                raise ValueError("reflection undefined for this square")
        self.__dict__.update(model=model, generators=generators)

    @_kept
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
        _check_same_model(x.model, self.model)
        return HomClass(self.model, mat_vec(self.matrix, x.coeffs))

    def __len__(self):
        return len(self.generators)


class NormalForm(_Record):
    """Outcome of cremona_reduce.

    word.matrix applied to the input class equals the representative,
    negated when sign_flipped is set.  The representative is stored with
    its first nonzero coefficient positive.
    """

    _fields = ("kind", "representative", "word", "sign_flipped")

    def __init__(self, kind: str, representative: HomClass, word: ReflectionWord,
                 sign_flipped: bool):
        if kind not in ALL_KINDS:
            raise ValueError(f"unknown normal form kind {kind!r}")
        self.__dict__.update(kind=kind, representative=representative, word=word,
                             sign_flipped=sign_flipped)


def _match_terminal(coeffs, n):
    """The terminal pattern kind of a rational class with a >= 0, or None.

    Patterns: 0, +-E_i, +-(E_i-E_j), H-E_i-E_j when n = 2 only,
    H-E_i-E_j-E_k.  The Cremona loop flips a class with a < 0 before it
    matches, so the H-patterns need only the sign a = 1; +-E_i both
    match ExceptionalEi, and the loop's finish marks the net -E_i.
    """
    a = coeffs[0]
    if a != 0 and a != 1:
        return None
    nonzero = [c for c in coeffs[1:] if c]
    if a == 0:
        if not nonzero:
            return KIND_ZERO
        if len(nonzero) == 1 and abs(nonzero[0]) == 1:
            return KIND_EXC_EI
        if len(nonzero) == 2 and sorted(nonzero) == [-1, 1]:
            return KIND_BINARY
        return None
    if nonzero == [-1, -1] and n == 2:
        return KIND_EXC_HEIEJ
    if nonzero == [-1, -1, -1]:
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

    Each pass first flips the whole class when the H-coefficient is
    negative (recorded in sign_flipped, not as a generator) and only then
    matches the terminal patterns, so they see a >= 0 only.  It then
    sorts the b_i by explicit transposition reflections, stops with
    NegativeCoefficient when a > 0 with some b_i < 0 and nonnegative
    defect, and otherwise applies Gamma on the three largest b_i while
    the defect is negative.  A generous iteration cap and a
    stuck-state check return Irreducible instead of looping on inputs
    outside the classes the terminal patterns cover.

    The normal form is kept on xi, so is_exceptional,
    is_K_null_spherical and a later cremona_reduce of the same class
    object share one reduction under K_0 (a K_delta question reduces the
    class that _conjugate_to_k0 moved, a new object each time); equality
    and hash still read the coefficients only.  A result that hit the cap
    is not kept, so every call on such a class reduces it again and warns
    at its caller.
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
    only a and b_1, b_2, b_3.  Each pass sorts cur[1:] once and walks
    the sorted values: a position that already holds its value is left
    alone, and otherwise it swaps with the first later place of that
    value, found by list.index.  These are exactly the transpositions of
    a selection sort that takes the first least coefficient at or after
    each position, at O(n log n) per pass plus one C-level scan per
    transposition.  After them the coefficients cur[1:] = -b ascend, so
    the defect and the least b_i are read off cur[1:4] and cur[n] without
    another sort.  The generators come from the model's shared class
    table, fetched once per call, so the loop builds one class, the
    representative.
    """
    model = xi.model
    classes = model._classes
    n = model.n
    cur = list(xi.coeffs)
    flipped = False
    applied = []
    gamma_cap = abs(cur[0]) + n + _GAMMA_CAP_SLACK
    gamma_count = 0

    def finish(kind, capped=False):
        rep, extra = _normalize_sign(HomClass(model, tuple(cur)))
        if kind == KIND_EXC_EI and flipped ^ extra:
            # the net class is -E_i
            kind = KIND_MINUS_BASIS
        nf = NormalForm(
            kind=kind,
            representative=rep,
            word=ReflectionWord.from_applied(model, applied),
            sign_flipped=flipped ^ extra,
        )
        return nf, capped

    while True:
        if cur[0] < 0:
            cur = [-c for c in cur]
            flipped = not flipped
        kind = _match_terminal(cur, n)
        if kind is not None:
            return finish(kind)
        a = cur[0]
        # sort b descending with explicit transpositions; the reflection
        # along E_i - E_j swaps the coefficients of E_i and E_j.  v is the
        # least of cur[pos:], and index finds its first place after pos
        for pos, v in enumerate(sorted(cur[1:]), 1):
            if cur[pos] != v:
                best = cur.index(v, pos + 1)
                applied.append(classes[(pos, 1), (best, -1)])
                cur[pos], cur[best] = v, cur[pos]
        # d = a - b_1 - b_2 - b_3, absent b_2, b_3 counting as zero when
        # n < 3; -cur[n] is the least b_i (none when n = 0)
        d = a + sum(cur[1:4])
        if d >= 0:
            if n == 0 or cur[n] <= 0:
                return finish(KIND_REDUCED)
            if a > 0:
                return finish(KIND_NEGATIVE)
        elif n >= 3:
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


def _k0_signs(model: LatticeModel, K: FormClass | None) -> tuple:
    """The canonical-class check of every routine that takes a K.

    Returns (K, signs): K itself, or model.k0_form() for None, and the
    E-coefficients of K, which are the signs of the isometry carrying K
    to K_0 (all +1 for K_0).  A rational K may be K_0 or a K_delta
    variant -3H + sum +-E_i; a ruled K must be K_0, so a K that passes
    has denominator 1 and pairs as K.num.
    Raises ValueError for any other K, or for a K of another model.

    The model check runs on every call.  A K that passes keeps its signs,
    so the K check runs once per K object; a K that fails keeps nothing
    and raises on every call.
    """
    if K is None:
        K = model.k0_form()
    else:
        _check_same_model(K.model, model)
    signs = vars(K).get("_k0_signs")
    if signs is None:
        if model.kind == RULED:
            if K != model.k0_form():
                raise ValueError("conjugate to K_0 first")
        elif K.den != 1 or K.num[0] != -3 or any(c not in (1, -1) for c in K.num[1:]):
            raise ValueError("K must be K_0 or a K_delta variant; conjugate to K_0 first")
        signs = K.num[model.e_offset:]
        object.__setattr__(K, "_k0_signs", signs)
    return K, signs


def _conjugate_to_k0(x, signs: tuple):
    """Map the class or form x by the sign isometry with the E-signs from
    _k0_signs: a K_delta question about x is the K_0 question about the
    moved x, and the involution also moves a K_0 answer's class back.
    Under K_0 every sign is +1 and x itself comes back, so the normal
    form or walk kept on it serves later questions about that object.
    """
    if -1 not in signs:
        return x
    off = x.model.e_offset
    if isinstance(x, FormClass):
        return FormClass._from_num(x.model, x.num[:off] + tuple(map(mul, signs, x.num[off:])), x.den)
    return HomClass(x.model, x.coeffs[:off] + tuple(map(mul, signs, x.coeffs[off:])))


def _ruled_exceptional(model: LatticeModel) -> list:
    """E_i, then F - E_i, for i = 1, ..., n: the exceptional classes of a
    ruled model under K_0, from the model's shared class table."""
    classes = model._classes
    return [x for i in range(2, model.n + 2) for x in (classes[((i, 1),)], classes[(1, 1), (i, -1)])]


# predicate -> (square, K-pairing, normal-form kinds that answer Yes)
_PREDICATES = {
    "exceptional": (-1, -1, frozenset({KIND_EXC_EI, KIND_EXC_HEIEJ})),
    "knull": (-2, 0, SPHERICAL_KINDS),
}


def _decide(xi: HomClass, predicate: str) -> tuple:
    """(verdict, normal form or None) of an exceptional or K_0-null
    spherical class; a K_delta caller moves xi by _conjugate_to_k0 first.

    Both predicates gate on square and K_0-pairing first.  A ruled class
    x = tT + fF + sum c_i E_i passing the gate is decided by x.F = t:
    when t = 0, x^2 = -sum c_i^2 and K_0.x = -2f - sum c_i, so square -1
    leaves one c_k = 1 - 2f, the class E_k or F - E_k, and square -2
    leaves two c_i = +-1 summing to -2f, the class +-(E_i-E_j) or
    +-(F-E_i-E_j).  A rational class is reduced once, and the Yes kinds
    of the table decide it; the normal form comes back on a Yes only.

    No flipped reduction is exceptional: one ending at E_i is reported as
    PlusMinusBasisE, and -(H-E_i-E_j) pairs K_0 to +1, which twists fix.
    """
    square, k_pairing, kinds = _PREDICATES[predicate]
    model = xi.model
    if xi._square != square or _gram_product(model, model.k0_form().num, xi.coeffs) != k_pairing:
        return False, None
    if model.kind == RULED:
        return xi.coeffs[0] == 0, None
    nf = cremona_reduce(xi)
    return (True, nf) if nf.kind in kinds else (False, None)


def is_exceptional(xi: HomClass, K: FormClass | None = None) -> bool:
    """Square -1, K-pairing -1, and reduction to +E_i (or +(H-E_i-E_j) at
    n = 2); ruled: E_i or F - E_i.  K (default K_0) passes the one check
    of _k0_signs: rational K may be K_0 or a K_delta variant, ruled K_0.
    """
    _, signs = _k0_signs(xi.model, K)
    return _decide(_conjugate_to_k0(xi, signs), "exceptional")[0]


def is_K_null_spherical(xi: HomClass, K: FormClass | None = None) -> bool:
    """Square -2, K-pairing 0, and equivalence to a binary or ternary class;
    ruled: +-(E_i-E_j) or +-(F-E_i-E_j).  K as for is_exceptional.
    """
    _, signs = _k0_signs(xi.model, K)
    return _decide(_conjugate_to_k0(xi, signs), "knull")[0]

