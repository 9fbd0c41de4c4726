"""Factoring lattice isometries into reflection words.

All three decompositions return a ReflectionWord whose generator
product equals the input matrix exactly; the product is recomputed and
compared before returning, so a successful call is its own certificate.

decompose_K      rational isometries preserving K_0, factored into
                 binary twists R(E_i-E_j) and ternary twists
                 R(H-E_i-E_j-E_k) by walking one point home.  The twist
                 group W is a Coxeter group whose fundamental chamber is
                 the sorted chamber b_1 <= ... <= b_n,
                 a >= b_{n-2} + b_{n-1} + b_n, where the cone walk takes
                 every form (the reduced forms of Li-Li).  Each W-orbit
                 in the cone meets the chamber once, and only 1 in W
                 fixes an interior point, so an element of W is fixed by
                 where it sends one interior point,
                 rho = (n^2 + 3)H - sum i E_i: its b_i ascend and are
                 distinct, a > b_{n-2} + b_{n-1} + b_n and a^2 > sum b_i^2.
                 The walk of M rho (cone._walk) gives twists
                 f_1, ..., f_m whose product psi = R(f_m) ... R(f_1)
                 carries M rho into the chamber.  For M in W it lands on
                 rho, and psi M, in W and fixing rho, is 1, so
                 M = R(f_1) ... R(f_m).  A walk that leaves the cone or
                 lands elsewhere shows that M is not in W, and the final
                 re-check refuses an M outside W that the walk cannot
                 tell from psi^{-1}.

decompose_K_alpha  as above, but every generator must also annihilate
                 a form alpha in the symplectic cone.  alpha's own walk
                 gives its frame psi and its chamber form alpha' = psi
                 alpha, with b'_1 <= ... <= b'_n.  The point
                 psi M psi^{-1} rho is walked home, and each twist g of
                 that walk is pulled back to psi^{-1} g; no matrix is
                 conjugated.  Every core has alpha'-area zero.  M fixes
                 alpha, so the walk starts at area
                 (psi M psi^{-1} rho).alpha' = rho.alpha'.  A ternary move
                 adds d (a' - b'_i - b'_j - b'_k) to it, with d < 0 and
                 alpha' in the chamber, so the area never rises.  Before
                 sorting, the walk reaches P rho for a permutation P, and
                 P rho.alpha' >= rho.alpha' by the rearrangement
                 inequality, since rho and alpha' both ascend.  So every
                 move has area zero, P permutes only within the blocks of
                 tied b'_i, and every sorting transposition swaps two tied
                 indices and has area zero too.  Pulling back by psi
                 keeps the product and the area of every core.

decompose_ruled  ruled isometries preserving K_0, alpha and the fiber
                 class F, factored into twists along E_i-E_j and
                 F-E_i-E_j, the roots of a D_n system, by the same walk
                 and pullback as decompose_K_alpha.  Every twist fixes F,
                 so M must fix it outright.  On a form tT + fF - sum b_i E_i
                 the twist along F-E_i-E_j sends b_i to t - b_j and b_j
                 to t - b_i; the chamber is b_1 <= ... <= b_n with
                 b_{n-1} + b_n <= t, and the walk reaches it from every
                 form, so alpha need not lie in the cone.  The interior
                 point is rho = 2n T + F - sum i E_i: its b_i ascend and
                 are distinct, and b_{n-1} + b_n < t.  The area argument
                 is the rational one: a flip of the walked point along
                 F-E_i-E_j has d = t - b_i - b_j < 0 and adds
                 d (t' - b'_i - b'_j) <= 0 to its alpha'-area, since no
                 two b'_i sum past t' in the chamber, and
                 P rho.alpha' >= rho.alpha' as before, so every core has
                 alpha'-area zero.

The walks step integer numerators and read M once, as a product with
the (conjugated) interior point; no running matrix is kept.  Every word
is re-checked at the end: the product is rebuilt from the generators
alone and compared with the input.

Checks once, integer areas.  Each check runs once per matrix: the
IsometryMatrix keeps its pairing verdict and, by the form's numerators,
its K and alpha pullback verdicts, so a validate followed by a
decompose_* call computes each pullback once.  Both checks read G M, not
the dense gram matrix: G keeps H (or swaps T and F) and negates every E_i
coefficient, so each column of G M costs O(r).  M^T G M = G is then
r(r+1)/2 plain dot products of a column of M with a column of G M, and
a pullback G M^T G v is G v once, one dot product per column and G again.
Each twist of the alpha walk is pulled back through the frame on its
coefficient tuple, so a generator builds one class, not one per frame
step.  Every alpha-area test reads the integer gram product of alpha's
numerators with the core: alpha's denominator is positive, so the zero
tests are those of the exact areas, and no Fraction is built.

A matrix that validates but cannot be factored raises
DecompositionError rather than being silently accepted; such a matrix
lies outside the subgroup the twist generators span.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain
from operator import mul

from .classexpr import model_from_json, model_to_json
from .cone import _form_walk, _walk
from .lattice import (
    RATIONAL,
    RULED,
    FormClass,
    HomClass,
    LatticeModel,
    _check_same_model,
    _gram_product,
    _gram_vec,
    _kept,
    _Record,
    _reflect_coeffs,
    mat_transpose,
    mat_vec,
)
from .reduction import ReflectionWord


class DecompositionError(RuntimeError):
    """The matrix validated but could not be factored into twists."""


class IsometryMatrix(_Record):
    """An integer matrix acting on coefficient column vectors.

    The matrix keeps its columns, its verdict on M^T G M = G and, by the
    form's numerators, its verdict on whether the pullback fixes a form,
    so validate and the entry check of a decompose_* routine run each
    check once per matrix; equality and hash read the fields only.
    """

    _fields = ("model", "entries")

    def __init__(self, model: LatticeModel, entries: tuple):
        rank = model.rank
        entries = tuple(map(tuple, entries))
        if len(entries) != rank or any(len(row) != rank for row in entries):
            raise ValueError(f"matrix must be {rank}x{rank}")
        # one pass over the entry types; type(), not isinstance: a bool is
        # an int and would pass
        if not set(map(type, chain.from_iterable(entries))) <= {int}:
            raise TypeError("matrix entries must be integers")
        self.__dict__.update(model=model, entries=entries)

    @_kept
    def _cols(self) -> tuple:
        return mat_transpose(self.entries)

    @_kept
    def _preserves_pairing(self) -> bool:
        return _pairing_preserved(self.model, self._cols)

    @_kept
    def _fixed_forms(self) -> dict:
        # num -> whether the pullback fixes the form num/den; the pullback
        # is linear, so the numerators decide it, and an equal form built
        # as another object still finds its verdict
        return {}

    def _fixes(self, form) -> bool:
        verdicts = self._fixed_forms
        fixed = verdicts.get(form.num)
        if fixed is None:
            fixed = verdicts[form.num] = _pullback(self.model, self._cols, form.num) == form.num
        return fixed


class ValidationReport(namedtuple("ValidationReport", "ok failures")):
    """Which of the isometry preconditions hold, failures named."""

    __slots__ = ()

    def __bool__(self):
        return self.ok


def _pullback(model, cols, num):
    # form composed with the matrix; in the Poincare-dual coefficient
    # convention that is G M^T G applied to the form's vector: G v once,
    # one dot product per column, and G again, each G in O(r)
    gv = _gram_vec(model, num)
    return _gram_vec(model, [sum(map(mul, c, gv)) for c in cols])


def _pairing_preserved(model, cols) -> bool:
    # M^T G M = G entry by entry on the columns of G M, each built once;
    # both sides are symmetric
    gcols = [_gram_vec(model, c) for c in cols]
    return all(
        sum(map(mul, c, gcols[j])) == row[j]
        for i, (c, row) in enumerate(zip(cols, model.gram))
        for j in range(i, len(cols))
    )


def validate(M: IsometryMatrix, K: FormClass | None = None, alpha=None) -> ValidationReport:
    """Check pairing preservation, K-preservation, and alpha-preservation.

    K and alpha must belong to M's model, else ValueError.
    Every verdict is kept on M, the pullback ones by the form's
    numerators, so a later validate of the same matrix, or the one inside
    decompose_*, repeats neither the O(r^3) pairing check nor an O(r^2)
    pullback.
    """
    if K is None:
        K = M.model.k0_form()
    _check_same_model(K.model, M.model)
    if alpha is not None:
        _check_same_model(alpha.model, M.model)
    failures = []
    if not M._preserves_pairing:
        failures.append("pairing not preserved")
    if not M._fixes(K):
        failures.append("K not preserved")
    if alpha is not None and not M._fixes(alpha):
        failures.append("alpha not preserved")
    return ValidationReport(ok=not failures, failures=tuple(failures))


def _require_valid(M, K, alpha=None):
    report = validate(M, K, alpha)
    if not report.ok:
        raise ValueError("matrix fails validation: " + ", ".join(report.failures))


def _finish(model, M, gens):
    # gens were applied chronologically by left multiplication, so the
    # listed-order product of an involutive family reproduces M
    word = ReflectionWord(model, tuple(gens))
    if word.matrix != M.entries:
        raise DecompositionError("residual not resolvable")
    return word


def _interior_point(model):
    # rho, strictly inside the sorted chamber: (n^2 + 3)H - sum i E_i for
    # rational models, 2n T + F - sum i E_i for ruled ones
    n = model.n
    head = (n * n + 3,) if model.kind == RATIONAL else (2 * n, 1)
    return head + tuple(range(-1, -n - 1, -1))


def _walk_home(model, v):
    """The chronological twists f_1, ..., f_m of v's chamber walk, when
    R(f_m) ... R(f_1) carries v to rho; v is no form, so nothing keeps
    its walk."""
    frame = _walk(model, v).frame
    if frame is None or frame[1] != _interior_point(model):
        raise DecompositionError("residual not resolvable")
    return frame[0]


def decompose_K(M: IsometryMatrix) -> ReflectionWord:
    """Factor a K_0-preserving rational isometry into twist generators."""
    model = M.model
    if model.kind != RATIONAL:
        raise ValueError("decompose_K expects a rational model")
    _require_valid(M, model.k0_form())
    return _finish(model, M, _walk_home(model, mat_vec(M.entries, _interior_point(model))))


def _alpha_walk(M, alpha, chamber):
    """The twists of M, all of alpha-area zero, from alpha's chamber
    frame psi and chamber form alpha' = ``chamber``: the walk of
    psi M psi^{-1} rho, each twist pulled back by psi^{-1}."""
    model = M.model
    frame, alpha_prime = chamber
    # psi = R(f_m) ... R(f_1) over the frame word f, and every R(f) is an
    # involution: reflect rho back through the frame, apply M, then
    # reflect forward, giving psi M psi^{-1} rho
    v = _interior_point(model)
    for f in reversed(frame):
        v = _reflect_coeffs(f, v)
    v = mat_vec(M.entries, v)
    for f in frame:
        v = _reflect_coeffs(f, v)

    gens = []
    for g in _walk_home(model, v):
        if _gram_product(model, alpha_prime, g.coeffs) != 0:
            raise DecompositionError("generator with nonzero alpha-area")
        if frame:
            c = g.coeffs
            for f in reversed(frame):
                c = _reflect_coeffs(f, c)
            g = HomClass._from_ints(model, c)
        gens.append(g)
    for g in gens:
        if _gram_product(model, alpha.num, g.coeffs) != 0:
            raise DecompositionError("pulled-back generator with nonzero alpha-area")
    return _finish(model, M, gens)


def decompose_K_alpha(M: IsometryMatrix, alpha: FormClass) -> ReflectionWord:
    """Factor a (K_0, alpha)-preserving rational isometry into twists
    whose cores all have alpha-area zero; alpha outside the symplectic
    cone raises ValueError at every n."""
    model = M.model
    if model.kind != RATIONAL:
        raise ValueError("decompose_K_alpha expects a rational model")
    _require_valid(M, model.k0_form(), alpha)
    walk = _form_walk(alpha)
    if not walk.open:
        raise ValueError("alpha must lie in the symplectic cone")
    return _alpha_walk(M, alpha, walk.frame)


def decompose_ruled(M: IsometryMatrix, alpha: FormClass) -> ReflectionWord:
    """Factor a (K_0, alpha)-preserving ruled isometry into twists along
    E_i-E_j and F-E_i-E_j cores, all of alpha-area zero; every alpha
    has a chamber, inside the cone or not."""
    model = M.model
    if model.kind != RULED:
        raise ValueError("decompose_ruled expects a ruled model")
    _require_valid(M, model.k0_form(), alpha)
    if M._cols[1] != model._classes[((1, 1),)].coeffs:  # column F is the image of F
        raise DecompositionError("fiber class not preserved")
    return _alpha_walk(M, alpha, _form_walk(alpha).frame)


def matrix_to_json(M: IsometryMatrix) -> dict:
    return {
        "model": model_to_json(M.model),
        "entries": [list(row) for row in M.entries],
    }


def matrix_from_json(data: dict) -> IsometryMatrix:
    if not isinstance(data, dict):
        raise ValueError("matrix must be a JSON object")
    model = model_from_json(data.get("model"))
    entries = data.get("entries")
    if not isinstance(entries, list) or not all(isinstance(r, list) for r in entries):
        raise ValueError("entries must be a list of rows")
    return IsometryMatrix(model, tuple(tuple(row) for row in entries))
