"""Intersection lattices of blown-up rational and ruled surfaces.

Two models are supported, each with a fixed ordered basis:

  rational: basis (H, E1, ..., En), H.H = 1, Ei.Ei = -1, cross terms 0
  ruled:    basis (T, F, E1, ..., En), T.F = 1, T.T = F.F = 0, Ei.Ei = -1

Homology classes carry integer coefficients.  Cohomology classes carry
exact rationals, stored as integer numerators over one denominator, so
both pair through the same integer gram product (a class is identified
with its Poincare dual, so one coefficient convention serves both
sides).  Fraction appears only where a form enters or leaves: its
constructor, ``coeffs`` and the value of ``form_pairing``.  Everything
here is exact; no floats appear anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

RATIONAL = "rational"
RULED = "ruled"

_ADMISSIBLE_SQUARES = (1, -1, 2, -2)


@dataclass(frozen=True)
class LatticeModel:
    """The ambient lattice: either rational(n) or ruled(h, n).

    ``n`` counts the exceptional basis classes.  ``genus`` is the base
    genus of the ruled model and is 0 for rational models.
    """

    kind: str
    n: int
    genus: int = 0

    def __post_init__(self):
        if self.kind not in (RATIONAL, RULED):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if self.kind == RULED and self.genus < 1:
            raise ValueError("ruled model needs positive genus")
        if self.kind == RATIONAL and self.genus != 0:
            raise ValueError("rational model carries no genus")

    @staticmethod
    def rational(n: int) -> "LatticeModel":
        return LatticeModel(RATIONAL, n)

    @staticmethod
    def ruled(h: int, n: int) -> "LatticeModel":
        return LatticeModel(RULED, n, h)

    @property
    def rank(self) -> int:
        return (1 if self.kind == RATIONAL else 2) + self.n

    @property
    def e_offset(self) -> int:
        """Index of E1 in the coefficient vector."""
        return 1 if self.kind == RATIONAL else 2

    @cached_property
    def basis_names(self) -> tuple:
        head = ("H",) if self.kind == RATIONAL else ("T", "F")
        return head + tuple(f"E{i}" for i in range(1, self.n + 1))

    @cached_property
    def gram(self) -> tuple:
        r = self.rank
        rows = [[0] * r for _ in range(r)]
        if self.kind == RATIONAL:
            rows[0][0] = 1
        else:
            rows[0][1] = 1
            rows[1][0] = 1
        for i in range(self.e_offset, r):
            rows[i][i] = -1
        return tuple(tuple(row) for row in rows)

    def _k0_coeffs(self) -> tuple:
        if self.kind == RATIONAL:
            return (-3,) + (1,) * self.n
        return (-2, 2 * self.genus - 2) + (1,) * self.n

    def k0(self) -> "HomClass":
        """PD of the standard canonical class, as a homology class."""
        return HomClass(self, self._k0_coeffs())

    def k0_form(self) -> "FormClass":
        """The standard canonical class, as an evaluating form."""
        return FormClass._from_num(self, self._k0_coeffs(), 1)

    def zero(self) -> "HomClass":
        return HomClass(self, (0,) * self.rank)

    def unit(self, index: int) -> "HomClass":
        coeffs = [0] * self.rank
        coeffs[index] = 1
        return HomClass(self, tuple(coeffs))

    def E(self, i: int) -> "HomClass":
        """The i-th exceptional basis class, 1-based."""
        if not 1 <= i <= self.n:
            raise ValueError(f"index out of range: E{i} in a model with n={self.n}")
        return self.unit(self.e_offset + i - 1)

    def basis(self) -> tuple:
        return tuple(self.unit(j) for j in range(self.rank))

    def __repr__(self):
        if self.kind == RATIONAL:
            return f"LatticeModel.rational({self.n})"
        return f"LatticeModel.ruled({self.genus}, {self.n})"


def _check_same_model(x, y):
    if x.model != y.model:
        raise ValueError("incompatible lattice models")


@dataclass(frozen=True)
class HomClass:
    """A homology class: an integer coefficient vector in basis order."""

    model: LatticeModel
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.model.rank:
            raise ValueError("coefficient vector length does not match rank")
        for c in self.coeffs:
            if not isinstance(c, int):
                raise TypeError("homology coefficients must be exact integers")

    def square(self) -> int:
        return self._square

    @cached_property
    def _square(self) -> int:
        # kept on the class for every reflection along it; equality and
        # hash read the fields only
        return _gram_product(self.model, self.coeffs, self.coeffs)

    def e_coeffs(self) -> tuple:
        return self.coeffs[self.model.e_offset:]

    def __add__(self, other):
        _check_same_model(self, other)
        return HomClass(self.model, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        _check_same_model(self, other)
        return HomClass(self.model, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return HomClass(self.model, tuple(-a for a in self.coeffs))

    def __rmul__(self, k):
        if not isinstance(k, int):
            raise TypeError("homology classes scale by integers only")
        return HomClass(self.model, tuple(k * a for a in self.coeffs))


@dataclass(frozen=True, init=False, repr=False)
class FormClass:
    """A cohomology class: exact rational coefficients in basis order.

    Stored as integer numerators ``num`` over one positive denominator
    ``den``, the lcm of the reduced denominators, so gcd(den, *num) = 1
    and equal forms have equal (num, den).  Library arithmetic runs on
    ``num``; ``coeffs``, the Fraction tuple, is built on first read.
    """

    model: LatticeModel
    num: tuple
    den: int

    def __init__(self, model: LatticeModel, coeffs):
        if len(coeffs) != model.rank:
            raise ValueError("coefficient vector length does not match rank")
        exact = []
        for c in coeffs:
            if isinstance(c, float):
                raise TypeError("form coefficients must be exact rationals, not floats")
            exact.append(c if isinstance(c, (int, Fraction)) else Fraction(c))
        den = math.lcm(*(c.denominator for c in exact))
        num = tuple(c.numerator * (den // c.denominator) for c in exact)
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _from_num(cls, model: LatticeModel, num: tuple, den: int) -> "FormClass":
        """The form num/den from integer numerators, reduced to lowest terms."""
        if den <= 0:
            raise ValueError("denominator must be positive")
        g = math.gcd(den, *num)
        if g != 1:
            num, den = tuple(a // g for a in num), den // g
        form = object.__new__(cls)
        object.__setattr__(form, "model", model)
        object.__setattr__(form, "num", tuple(num))
        object.__setattr__(form, "den", den)
        return form

    @cached_property
    def coeffs(self) -> tuple:
        return tuple(Fraction(a, self.den) for a in self.num)

    @cached_property
    def _cone_verdicts(self) -> dict:
        # the cone module's verdicts on this form, by (K, closed); equality
        # and hash read the fields only
        return {}

    def __repr__(self):
        return f"FormClass(model={self.model!r}, coeffs={self.coeffs!r})"

    def _combine(self, other, sign):
        _check_same_model(self, other)
        den = math.lcm(self.den, other.den)
        p, q = den // self.den, sign * (den // other.den)
        return FormClass._from_num(self.model, tuple(p * a + q * b for a, b in zip(self.num, other.num)), den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return FormClass._from_num(self.model, tuple(-a for a in self.num), self.den)

    def __rmul__(self, k):
        k = k if isinstance(k, (int, Fraction)) else Fraction(k)
        return FormClass._from_num(self.model, tuple(k.numerator * a for a in self.num), k.denominator * self.den)


class _ClassTable(dict):
    """The shared classes of one model, keyed by their (index, coeff) terms.

    A missing key builds its class on first lookup, so a loop that holds
    the table reads each generator with one dict lookup.
    """

    def __init__(self, model: LatticeModel):
        super().__init__()
        self.model = model

    def __missing__(self, terms: tuple) -> HomClass:
        coeffs = [0] * self.model.rank
        for i, c in terms:
            coeffs[i] = c
        x = self[terms] = HomClass(self.model, tuple(coeffs))
        return x


@lru_cache(maxsize=64)
def _class_table(model: LatticeModel) -> _ClassTable:
    # one model instance per value, so the shared classes share its gram
    return _ClassTable(model)


def _sparse_class(model: LatticeModel, terms: tuple) -> HomClass:
    """The class sum of c·basis[i] over the pairs (i, c) in terms.

    Each class is built once per model and then shared, so the loops
    that take twist cores and basis classes from here build no class
    per step, and the square kept on each is computed once per process.
    """
    return _class_table(model)[terms]


def _gram_product(model: LatticeModel, u, v) -> int:
    """u^T gram v on raw integer coefficient sequences."""
    off = model.e_offset
    if model.kind == RATIONAL:
        head = u[0] * v[0]
    else:
        head = u[0] * v[1] + u[1] * v[0]
    return head - sum(a * b for a, b in zip(u[off:], v[off:]))


def pairing(x: HomClass, y: HomClass) -> int:
    """The intersection pairing x.y."""
    _check_same_model(x, y)
    return _gram_product(x.model, x.coeffs, y.coeffs)


def form_pairing(tau: FormClass, x) -> Fraction:
    """Evaluate the form tau on the class x (or on a form), exactly."""
    _check_same_model(tau, x)
    if isinstance(x, FormClass):
        return Fraction(_gram_product(tau.model, tau.num, x.num), tau.den * x.den)
    return Fraction(_gram_product(tau.model, tau.num, x.coeffs), tau.den)


def _reflection(gamma: HomClass):
    """The factor q = 2 / gamma.gamma and the nonzero entries of gamma
    and of G gamma.

    Each entry list holds (index, value) pairs; a twist core has at most
    four.  The reflection along gamma is x -> x - q (G gamma . x) gamma,
    so it reads x only on the support of G gamma and changes it only on
    the support of gamma.
    """
    model = gamma.model
    s = gamma._square
    if s not in _ADMISSIBLE_SQUARES:
        raise ValueError("reflection undefined for this square")
    q, rem = divmod(2, s)
    if rem:
        # 2/s is an integer for every admissible square, kept as a hard check
        raise ArithmeticError("non-integral reflection coefficient")
    support = [(i, c) for i, c in enumerate(gamma.coeffs) if c]
    # G is -1 on the exceptional diagonal and the antidiagonal 1s of the
    # (H) or (T, F) head block
    off = model.e_offset
    dual = [(i, -c) if i >= off else (off - 1 - i, c) for i, c in support]
    return q, support, dual


def reflect(gamma: HomClass, beta: HomClass) -> HomClass:
    """The reflection along gamma: beta - 2(gamma.beta)/(gamma.gamma) gamma.

    Defined only for gamma of square +-1 or +-2, which keeps the result
    integral for every integral beta.
    """
    _check_same_model(gamma, beta)
    q, support, dual = _reflection(gamma)
    x = beta.coeffs
    c = q * sum(d * x[i] for i, d in dual)
    out = list(x)
    for i, g in support:
        out[i] -= c * g
    return HomClass(beta.model, tuple(out))


def reflection_matrix(gamma: HomClass) -> tuple:
    """Matrix of reflect(gamma, .) acting on coefficient vectors."""
    return _mat_reflect(gamma, mat_identity(gamma.model.rank))


def is_characteristic(xi: HomClass) -> bool:
    """Whether xi.x = x.x mod 2 for every class x.

    By bilinearity it is enough to test the basis vectors, and against
    each of them the condition is a parity.  For xi = aH + sum c_i E_i,
    xi.H = a against H.H = 1 and xi.E_i = -c_i against E_i.E_i = -1, so
    every coefficient is odd.  For xi = tT + fF + sum c_i E_i,
    xi.T = f and xi.F = t against T.T = F.F = 0, so t and f are even and
    every c_i is odd.
    """
    model = xi.model
    off = model.e_offset
    head = 1 if model.kind == RATIONAL else 0
    return all(c % 2 == head for c in xi.coeffs[:off]) and all(c % 2 for c in xi.coeffs[off:])


# Small exact matrix helpers shared by the word and isometry types.
# Matrices are tuples of row tuples acting on column coefficient vectors.

def mat_identity(rank: int) -> tuple:
    return tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank))


def mat_mul(a: tuple, b: tuple) -> tuple:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(a: tuple, v) -> tuple:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def mat_transpose(a: tuple) -> tuple:
    return tuple(zip(*a))


def _mat_reflect(gamma: HomClass, a: tuple) -> tuple:
    """The product R(gamma)·a of the reflection matrix with a.

    Column j changes by c_j gamma with c_j = 2 (G gamma . a_j) / s, so
    the coefficients are read from the rows of a in the support of
    G gamma and only the rows in the support of gamma are rewritten; the
    other row tuples are shared.  For a twist core both supports have at
    most four entries, so the arithmetic is O(k) for k columns.  The
    entries of a are not checked: callers start from the identity or from
    a checked IsometryMatrix and change it only by reflections.
    """
    q, support, dual = _reflection(gamma)
    dots = [0] * len(a[0])
    for i, d in dual:
        dots = [u + d * x for u, x in zip(dots, a[i])]
    rows = [tuple(row) for row in a]
    for i, g in support:
        m = q * g
        rows[i] = tuple(x - m * u for x, u in zip(rows[i], dots))
    return tuple(rows)


def _mat_reflect_right(gamma: HomClass, a: tuple) -> tuple:
    """The product a·R(gamma) of a with the reflection matrix.

    Row i changes by -c_i (G gamma)^T with c_i = 2 (a_i . gamma) / s, so
    only the columns in the support of G gamma change.  The entries of a
    are not checked, as for _mat_reflect.
    """
    q, support, dual = _reflection(gamma)
    rows = []
    for row in a:
        c = q * sum(g * row[i] for i, g in support)
        if c:
            row = list(row)
            for j, d in dual:
                row[j] -= c * d
        rows.append(tuple(row))
    return tuple(rows)
