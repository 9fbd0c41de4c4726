"""Factoring lattice isometries into reflection words.

All three decompositions return a ReflectionWord whose generator
product equals the input matrix exactly; the product is recomputed and
compared before returning, so a successful call is its own certificate.

decompose_K      rational isometries preserving K_0, factored into
                 binary twists R(E_i-E_j) and ternary twists
                 R(H-E_i-E_j-E_k).  Column by column the image of E_i
                 is reduced to a basis class: while its H-coefficient
                 is positive, a ternary twist on the three largest
                 exceptional coefficients strictly lowers it, and a
                 final transposition moves the basis class into place.
                 Settled columns are never touched again because every
                 later generator is orthogonal to them.

decompose_K_alpha  as above, but every generator must also annihilate
                 a form alpha in the symplectic cone.  The matrix is
                 first conjugated by the frame change psi of alpha's own
                 cone walk, its Cremona moves and then transpositions
                 sorting the b_i ascending, so alpha' = aH - sum b_i E_i
                 has b_1 <= ... <= b_n and a >= b_{n-2} + b_{n-1} + b_n.
                 Every ternary core then has alpha'-area
                 a - b_j - b_k - b_l >= 0, and b_i is the least
                 alpha'-area of an exceptional class orthogonal to
                 E_1, ..., E_{i-1}.  The running image of E_i is such a
                 class with its area pinned at b_i, while a twist that
                 lowers its H-coefficient lowers its area by a positive
                 multiple of the core's area, which is therefore zero;
                 the closing transposition joins two classes of area
                 b_i.  The word is conjugated back at the end, which
                 preserves the product and the area of every core.

decompose_ruled  ruled isometries preserving K_0 and alpha, factored
                 into twists along E_i-E_j and F-E_i-E_j.  The fiber
                 class must be fixed outright.  Exceptional indices are
                 consumed in order of increasing area; the image of the
                 chosen class is either already in place, orthogonal to
                 it (one twist), or its fiber complement (two twists
                 through a spare index).

Every reduction step applies one reflection to the running matrix,
and decompose_K_alpha conjugates by its frame one reflection at a time,
never by a dense product.  A reflection along gamma rewrites only the
rows in the support of gamma when it acts on the left and only the
columns in the support of G gamma when it acts on the right; a twist
core has at most four nonzero entries.  Neither kernel checks the
entries, because the running matrix starts from the checked input and
changes only by reflections.  The final re-check still rebuilds the
product from the generators alone and compares it with the input, never
with the running matrix.

A matrix that validates but cannot be factored raises
DecompositionError rather than being silently accepted; such a matrix
lies outside the subgroup the twist generators span.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

from .classexpr import model_from_json, model_to_json
from .cone import _cone_decide
from .lattice import (
    RATIONAL,
    RULED,
    FormClass,
    HomClass,
    LatticeModel,
    _gram_product,
    _mat_reflect,
    _mat_reflect_right,
    _sparse_class,
    form_pairing,
    mat_identity,
    mat_transpose,
    mat_vec,
    pairing,
    reflect,
)
from .reduction import ReflectionWord


class DecompositionError(RuntimeError):
    """The matrix validated but could not be factored into twists."""


@dataclass(frozen=True)
class IsometryMatrix:
    """An integer matrix acting on coefficient column vectors.

    The matrix keeps its columns and its verdict on M^T G M = G once
    computed, so validate and the entry check of a decompose_* routine
    run that O(r^3) check once per matrix; equality and hash read the
    fields only.
    """

    model: LatticeModel
    entries: tuple

    def __post_init__(self):
        rank = self.model.rank
        entries = tuple(tuple(row) for row in self.entries)
        if len(entries) != rank or any(len(row) != rank for row in entries):
            raise ValueError(f"matrix must be {rank}x{rank}")
        for row in entries:
            for v in row:
                if not isinstance(v, int) or isinstance(v, bool):
                    raise TypeError("matrix entries must be integers")
        object.__setattr__(self, "entries", entries)

    @staticmethod
    def identity(model: LatticeModel) -> "IsometryMatrix":
        return IsometryMatrix(model, mat_identity(model.rank))

    @staticmethod
    def from_word(word: ReflectionWord) -> "IsometryMatrix":
        return IsometryMatrix(word.model, word.matrix)

    def apply(self, xi: HomClass) -> HomClass:
        if xi.model != self.model:
            raise ValueError("incompatible lattice models")
        return HomClass(self.model, mat_vec(self.entries, xi.coeffs))

    @cached_property
    def _cols(self) -> tuple:
        return mat_transpose(self.entries)

    @cached_property
    def _preserves_pairing(self) -> bool:
        return _pairing_preserved(self.model, self._cols)


class ValidationReport(NamedTuple):
    """Which of the isometry preconditions hold, failures named."""

    ok: bool
    failures: tuple

    def __bool__(self):
        return self.ok


def _pullback(model, cols, num):
    # form composed with the matrix; in the Poincare-dual coefficient
    # convention that is G M^T G applied to the form's vector, and entry
    # i of M^T G v is the gram product of column i with v
    return mat_vec(model.gram, tuple(_gram_product(model, c, num) for c in cols))


def _pairing_preserved(model, cols) -> bool:
    # M^T G M = G entry by entry; both sides are symmetric
    gram = model.gram
    return all(
        _gram_product(model, cols[i], cols[j]) == gram[i][j]
        for i in range(model.rank)
        for j in range(i, model.rank)
    )


def validate(M: IsometryMatrix, K: Optional[FormClass] = None, alpha=None) -> ValidationReport:
    """Check pairing preservation, K-preservation, and alpha-preservation.

    The pairing verdict is kept on M, so a later validate of the same
    matrix, or the one inside decompose_*, does not repeat that O(r^3)
    check; the K and alpha pullbacks, O(r^2), run on every call.
    """
    model = M.model
    if K is None:
        K = model.k0_form()
    failures = []
    cols = M._cols
    if not M._preserves_pairing:
        failures.append("pairing not preserved")
    if _pullback(model, cols, K.num) != K.num:
        failures.append("K not preserved")
    if alpha is not None and _pullback(model, cols, alpha.num) != alpha.num:
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


def _class_reduction_gens(model, v, i):
    """Chronological twists carrying v to E_i, supported on indices >= i.

    v must be an exceptional class orthogonal to E_1, ..., E_{i-1}.
    """
    n = model.n
    gens = []
    while v.coeffs[0] != 0:
        if v.coeffs[0] < 0:
            raise DecompositionError("residual not resolvable")
        top = sorted(range(i, n + 1), key=lambda j: v.coeffs[j])[:3]
        if len(top) < 3:
            raise DecompositionError("residual not resolvable")
        if v.coeffs[0] + sum(v.coeffs[j] for j in top) >= 0:
            raise DecompositionError("residual not resolvable")
        g = _sparse_class(model, ((0, 1),) + tuple((j, -1) for j in sorted(top)))
        gens.append(g)
        v = reflect(g, v)
    target = next((j for j in range(i, n + 1) if v == _sparse_class(model, ((j, 1),))), None)
    if target is None:
        raise DecompositionError("residual not resolvable")
    if target != i:
        gens.append(_sparse_class(model, ((i, 1), (target, -1))))
    return gens


def _staged_reduction(model, entries):
    """Chronological generators reducing the matrix to the identity.

    The identity M = product of the generators in listed order holds
    because each one is applied by left multiplication and reflections
    are involutions.
    """
    n = model.n
    cur = entries
    gens = []
    for i in range(1, n - 1):
        v = HomClass(model, tuple(row[i] for row in cur))
        for g in _class_reduction_gens(model, v, i):
            gens.append(g)
            cur = _mat_reflect(g, cur)
    if n >= 2:
        last = HomClass(model, tuple(row[n] for row in cur))
        if last == _sparse_class(model, ((n - 1, 1),)):
            g = _sparse_class(model, ((n - 1, 1), (n, -1)))
            gens.append(g)
            cur = _mat_reflect(g, cur)
    if cur != mat_identity(model.rank):
        raise DecompositionError("residual not resolvable")
    return gens


def decompose_K(M: IsometryMatrix) -> ReflectionWord:
    """Factor a K_0-preserving rational isometry into twist generators."""
    model = M.model
    if model.kind != RATIONAL:
        raise ValueError("decompose_K expects a rational model")
    _require_valid(M, model.k0_form())
    return _finish(model, M, _staged_reduction(model, M.entries))


def _chamber_frame(model, alpha):
    """(frame, alpha'): the chronological K_0-twists whose product psi
    carries alpha into its reduced chamber with the b_i ascending, and
    that image alpha'; None when alpha is not in the symplectic cone.

    The ternary cores are the moves of alpha's own cone walk; the
    transpositions after them sort the b_i ascending, ties kept in index
    order.
    """
    res, moves = _cone_decide(model, alpha.num, model.k0_form(), closed=False)
    if not res:
        return None
    frame = [_sparse_class(model, ((0, 1),) + tuple((m + 1, -1) for m in sorted(t))) for t in moves]
    dual = HomClass(model, alpha.num)
    for f in frame:
        dual = reflect(f, dual)
    # selection sort on (b_i, i); E_p - E_q swaps coefficients p and q
    keys = [(-c, i) for i, c in enumerate(dual.coeffs[1:], start=1)]
    for p in range(model.n):
        q = min(range(p, model.n), key=keys.__getitem__)
        if q != p:
            keys[p], keys[q] = keys[q], keys[p]
            frame.append(_sparse_class(model, ((p + 1, 1), (q + 1, -1))))
    num = (dual.coeffs[0],) + tuple(-b for b, _ in keys)
    return frame, FormClass._from_num(model, num, alpha.den)


def decompose_K_alpha(M: IsometryMatrix, alpha: FormClass) -> ReflectionWord:
    """Factor a (K_0, alpha)-preserving rational isometry into twists
    whose cores all have alpha-area zero; alpha outside the symplectic
    cone raises ValueError at every n."""
    model = M.model
    if model.kind != RATIONAL:
        raise ValueError("decompose_K_alpha expects a rational model")
    if alpha.model != model:
        raise ValueError("incompatible lattice models")
    _require_valid(M, model.k0_form(), alpha)
    chamber = _chamber_frame(model, alpha)
    if chamber is None:
        raise ValueError("alpha must lie in the symplectic cone")
    frame, alpha_prime = chamber

    # psi = R(f_m) ... R(f_1) over the frame word f, and every R(f) is an
    # involution, so M' = psi M psi^{-1} takes one reflection on each side
    # per frame twist
    M_prime = M.entries
    for f in frame:
        M_prime = _mat_reflect_right(f, _mat_reflect(f, M_prime))

    gens = []
    for g in _staged_reduction(model, M_prime):
        if form_pairing(alpha_prime, g) != 0:
            raise DecompositionError("generator with nonzero alpha-area")
        for f in reversed(frame):
            g = reflect(f, g)
        gens.append(g)
    for g in gens:
        if form_pairing(alpha, g) != 0:
            raise DecompositionError("pulled-back generator with nonzero alpha-area")
    return _finish(model, M, gens)


def decompose_ruled(M: IsometryMatrix, alpha: FormClass) -> ReflectionWord:
    """Factor a (K_0, alpha)-preserving ruled isometry into twists along
    E_i-E_j and F-E_i-E_j cores, all of alpha-area zero."""
    model = M.model
    if model.kind != RULED:
        raise ValueError("decompose_ruled expects a ruled model")
    if alpha.model != model:
        raise ValueError("incompatible lattice models")
    _require_valid(M, model.k0_form(), alpha)
    n = model.n

    def core(f, *e_terms):
        # the class f F + sum s E_j over the pairs (j, s)
        terms = ((1, f),) if f else ()
        return _sparse_class(model, terms + tuple((j + 1, s) for j, s in e_terms))

    F = core(1)
    if M.apply(F) != F:
        raise DecompositionError("fiber class not preserved")
    if n == 0:
        if M.entries != mat_identity(model.rank):
            raise DecompositionError("no twists available")
        return ReflectionWord(model, ())

    cur = M.entries
    gens = []
    remaining = list(range(1, n + 1))

    def img(xi):
        return HomClass(model, mat_vec(cur, xi.coeffs))

    def push(g):
        nonlocal cur
        if form_pairing(alpha, g) != 0:
            raise DecompositionError("generator with nonzero alpha-area")
        gens.append(g)
        cur = _mat_reflect(g, cur)

    while remaining:
        # E_j and F - E_j, each as (j, f, s) for f F + s E_j
        pool = {}
        for j in remaining:
            pool[core(0, (j, 1))] = (j, 0, 1)
            pool[core(1, (j, -1))] = (j, 1, -1)
        e = min(pool, key=lambda x: (form_pairing(alpha, x), x.coeffs))
        j, f, s = pool[e]
        c = img(e)
        if c not in pool:
            raise DecompositionError("residual not resolvable")
        if c != e:
            if pairing(c, e) == 0:
                k, fc, sc = pool[c]
                push(core(f - fc, (j, s), (k, -sc)))  # e - c
            else:
                # c is the fiber complement of e; route through a spare index
                spare = [k for k in remaining if k != j]
                if not spare:
                    raise DecompositionError("residual not resolvable")
                k = spare[0]
                push(core(-f, (k, 1), (j, -s)))  # E_k - e
                push(core(1 - f, (k, -1), (j, -s)))  # F - E_k - e
            if img(e) != e:
                raise DecompositionError("residual not resolvable")
        remaining.remove(j)
    if cur != mat_identity(model.rank):
        raise DecompositionError("residual not resolvable")
    return _finish(model, M, gens)


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
