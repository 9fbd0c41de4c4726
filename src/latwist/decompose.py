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
                 The walk of M rho (cone._chamber_frame) gives twists
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

decompose_ruled  ruled isometries preserving K_0 and alpha, factored
                 into twists along E_i-E_j and F-E_i-E_j.  The fiber
                 class must be fixed outright.  Exceptional indices are
                 consumed in order of increasing area; the image of the
                 chosen class is either already in place, orthogonal to
                 it (one twist), or its fiber complement (two twists
                 through a spare index).

The rational walks step integer numerators and read M once, as the
product M rho.  decompose_ruled applies one reflection per generator to
its running matrix; a reflection along gamma rewrites only the rows in
the support of gamma, and a twist core has at most four nonzero entries.
The kernel does not check the entries, because the running matrix starts
from the checked input and changes only by reflections.  Every word is
re-checked at the end: the product is rebuilt from the generators alone
and compared with the input.

Checks once, integer areas.  Each check runs once per matrix: the
IsometryMatrix keeps its pairing verdict and, by the form's numerators,
its K and alpha pullback verdicts, so a validate followed by a
decompose_* call computes each pullback once.  Every alpha-area test and
the ruled choice of the least-area class read the integer gram product
of alpha's numerators with the core: alpha's denominator is positive,
so the zero tests and the order are those of the exact areas, and no
Fraction is built.

A matrix that validates but cannot be factored raises
DecompositionError rather than being silently accepted; such a matrix
lies outside the subgroup the twist generators span.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .classexpr import model_from_json, model_to_json
from .cone import _chamber_frame
from .lattice import (
    RATIONAL,
    RULED,
    FormClass,
    LatticeModel,
    _check_same_model,
    _Record,
    _gram_product,
    _mat_reflect,
    _reflect_coeffs,
    mat_identity,
    mat_transpose,
    mat_vec,
    reflect,
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
        self.__dict__.update(model=model, entries=entries)
        self.__post_init__()

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

    @cached_property
    def _cols(self) -> tuple:
        return mat_transpose(self.entries)

    @cached_property
    def _preserves_pairing(self) -> bool:
        return _pairing_preserved(self.model, self._cols)

    @cached_property
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


def _interior_point(n):
    # rho = (n^2 + 3)H - sum i E_i, strictly inside the sorted chamber
    return (n * n + 3,) + tuple(range(-1, -n - 1, -1))


def _walk_home(model, v):
    """The chronological twists f_1, ..., f_m of v's cone walk, when
    R(f_m) ... R(f_1) carries v to rho."""
    walk = _chamber_frame(model, v)
    if walk is None or walk[1] != _interior_point(model.n):
        raise DecompositionError("residual not resolvable")
    return walk[0]


def decompose_K(M: IsometryMatrix) -> ReflectionWord:
    """Factor a K_0-preserving rational isometry into twist generators."""
    model = M.model
    if model.kind != RATIONAL:
        raise ValueError("decompose_K expects a rational model")
    _require_valid(M, model.k0_form())
    return _finish(model, M, _walk_home(model, mat_vec(M.entries, _interior_point(model.n))))


def decompose_K_alpha(M: IsometryMatrix, alpha: FormClass) -> ReflectionWord:
    """Factor a (K_0, alpha)-preserving rational isometry into twists
    whose cores all have alpha-area zero; alpha outside the symplectic
    cone raises ValueError at every n."""
    model = M.model
    if model.kind != RATIONAL:
        raise ValueError("decompose_K_alpha expects a rational model")
    _require_valid(M, model.k0_form(), alpha)
    chamber = _chamber_frame(model, alpha.num)
    if chamber is None:
        raise ValueError("alpha must lie in the symplectic cone")
    frame, alpha_prime = chamber

    # psi = R(f_m) ... R(f_1) over the frame word f, and every R(f) is an
    # involution: reflect rho back through the frame, apply M, then
    # reflect forward, giving psi M psi^{-1} rho
    v = _interior_point(model.n)
    for f in reversed(frame):
        v = _reflect_coeffs(f, v)
    v = mat_vec(M.entries, v)
    for f in frame:
        v = _reflect_coeffs(f, v)

    gens = []
    for g in _walk_home(model, v):
        if _gram_product(model, alpha_prime, g.coeffs) != 0:
            raise DecompositionError("generator with nonzero alpha-area")
        for f in reversed(frame):
            g = reflect(f, g)
        gens.append(g)
    for g in gens:
        if _gram_product(model, alpha.num, g.coeffs) != 0:
            raise DecompositionError("pulled-back generator with nonzero alpha-area")
    return _finish(model, M, gens)


def decompose_ruled(M: IsometryMatrix, alpha: FormClass) -> ReflectionWord:
    """Factor a (K_0, alpha)-preserving ruled isometry into twists along
    E_i-E_j and F-E_i-E_j cores, all of alpha-area zero."""
    model = M.model
    if model.kind != RULED:
        raise ValueError("decompose_ruled expects a ruled model")
    _require_valid(M, model.k0_form(), alpha)
    n = model.n
    classes = model._classes
    identity = mat_identity(model.rank)

    def core(f, *e_terms):
        # the class f F + sum s E_j over the pairs (j, s), keyed in index order
        terms = ((1, f),) if f else ()
        return classes[terms + tuple(sorted((j + 1, s) for j, s in e_terms))]

    if M._cols[1] != identity[1]:  # column F is the image of F
        raise DecompositionError("fiber class not preserved")

    cur = M.entries
    gens = []
    remaining = list(range(1, n + 1))

    def img(j, f, s):
        # f F + s E_j maps to f (column F) + s (column E_j)
        return tuple(f * row[1] + s * row[j + 1] for row in cur)

    def push(g):
        nonlocal cur
        if _gram_product(model, alpha.num, g.coeffs) != 0:
            raise DecompositionError("generator with nonzero alpha-area")
        gens.append(g)
        cur = _mat_reflect(g, cur)

    # E_j and F - E_j by coefficients, each as (j, f, s) for f F + s E_j.
    # Their areas never change, so one sort by (area, coefficients) gives
    # each pass's least-area class: the first one whose index remains.
    # alpha's denominator is positive, so its numerators keep the order.
    pool = {core(f, (j, s)).coeffs: (j, f, s) for j in remaining for f, s in ((0, 1), (1, -1))}
    for e in sorted(pool, key=lambda x: (_gram_product(model, alpha.num, x), x)):
        j, f, s = pool[e]
        if j not in remaining:
            continue
        c = img(j, f, s)
        hit = pool.get(c)
        if hit is None or hit[0] not in remaining:
            raise DecompositionError("residual not resolvable")
        if c != e:
            k, fc, sc = hit
            if k != j:
                # c is orthogonal to e
                push(core(f - fc, (j, s), (k, -sc)))  # e - c
            else:
                # c is the fiber complement of e; route through a spare index
                spare = [k for k in remaining if k != j]
                if not spare:
                    raise DecompositionError("residual not resolvable")
                k = spare[0]
                push(core(-f, (k, 1), (j, -s)))  # E_k - e
                push(core(1 - f, (k, -1), (j, -s)))  # F - E_k - e
            if img(j, f, s) != e:
                raise DecompositionError("residual not resolvable")
        remaining.remove(j)
    if cur != identity:
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
