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
from fractions import Fraction
from functools import lru_cache
from operator import add, mul, neg, sub

RATIONAL = "rational"
RULED = "ruled"

_ADMISSIBLE_SQUARES = (1, -1, 2, -2)


class _Record:
    """Base of the library's immutable records.

    A record lists its fields in ``_fields``; its own ``__init__`` checks
    the arguments, if it checks any, and then sets the fields.
    Equality holds between records of the same class with equal fields;
    hash and repr read the fields in order.  Assignment and deletion
    raise AttributeError.  Values a record keeps after construction
    (kept values, memos) live in vars() beside the fields and take no
    part in equality, hash or repr.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _kept:
    """A value computed on its first read and kept in the record's vars().

    A non-data descriptor, so later reads find the kept value in vars()
    and never call it.  Unlike functools.cached_property it takes no lock
    on the first read.  A direct __get__ call still returns the kept value.
    """

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        d = obj.__dict__
        if self.name in d:
            return d[self.name]
        value = d[self.name] = self.fn(obj)
        return value


def _check_int(value, label, least=None):
    """The one check of an integer argument: an int (a subclass passes),
    never a bool, and at least ``least`` when one is given.  True and 2.5
    both compare with ints, so a bare range check would take them."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{label} must be an integer")
    if least is not None and value < least:
        raise ValueError(f"{label} must be {'positive' if least else 'nonnegative'}")


def _check_model_args(kind: str, n: int, genus: int):
    if kind not in (RATIONAL, RULED):
        raise ValueError(f"unknown model kind {kind!r}")
    _check_int(n, "model n")
    _check_int(genus, "model genus")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if kind == RULED and genus < 1:
        raise ValueError("ruled model needs positive genus")
    if kind == RATIONAL and genus != 0:
        raise ValueError("rational model carries no genus")


class LatticeModel(_Record):
    """The ambient lattice: either rational(n) or ruled(h, n).

    ``n`` counts the exceptional basis classes.  ``genus`` is the base
    genus of the ruled model and is 0 for rational models.

    The factories return one shared instance per value (see _interned),
    which holds the model's constants, its K_0 form and its class table,
    each built on first read.  Equality and hash read the fields only, so
    a model built directly equals the shared one and works everywhere.
    """

    _fields = ("kind", "n", "genus")

    def __init__(self, kind: str, n: int, genus: int = 0):
        _check_model_args(kind, n, genus)
        self.__dict__.update(kind=kind, n=n, genus=genus)

    @staticmethod
    def rational(n: int) -> "LatticeModel":
        return _interned(RATIONAL, n, 0)

    @staticmethod
    def ruled(h: int, n: int) -> "LatticeModel":
        return _interned(RULED, n, h)

    @_kept
    def rank(self) -> int:
        return self.e_offset + self.n

    @_kept
    def e_offset(self) -> int:
        """Index of E1 in the coefficient vector."""
        return 1 if self.kind == RATIONAL else 2

    @_kept
    def basis_names(self) -> tuple:
        head = ("H",) if self.kind == RATIONAL else ("T", "F")
        return head + tuple(f"E{i}" for i in range(1, self.n + 1))

    @_kept
    def _basis_index(self) -> dict:
        # basis name -> coefficient index, the parser's symbol lookup
        return {name: i for i, name in enumerate(self.basis_names)}

    @_kept
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
        """The standard canonical class, as an evaluating form; one shared
        object per model, so its checks and verdicts are kept once."""
        return self._k0_form

    @_kept
    def _k0_form(self) -> "FormClass":
        return FormClass._from_num(self, self._k0_coeffs(), 1)

    @_kept
    def _classes(self) -> "_ClassTable":
        # the shared classes, keyed by their nonzero terms; see _ClassTable
        return _ClassTable(self)

    def zero(self) -> "HomClass":
        return HomClass(self, (0,) * self.rank)

    def unit(self, index: int) -> "HomClass":
        """The basis class at coefficient index 0 <= index < rank."""
        _check_int(index, "index")
        if not 0 <= index < self.rank:
            raise ValueError(f"index {index} out of range for rank {self.rank}")
        coeffs = [0] * self.rank
        coeffs[index] = 1
        return HomClass(self, tuple(coeffs))

    def E(self, i: int) -> "HomClass":
        """The i-th exceptional basis class, 1-based."""
        _check_int(i, "index")
        if not 1 <= i <= self.n:
            raise ValueError(f"index out of range: E{i} in a model with n={self.n}")
        return self.unit(self.e_offset + i - 1)

    def basis(self) -> tuple:
        return tuple(self.unit(j) for j in range(self.rank))

    def __repr__(self):
        if self.kind == RATIONAL:
            return f"LatticeModel.rational({self.n})"
        return f"LatticeModel.ruled({self.genus}, {self.n})"


def _interned(kind: str, n: int, genus: int) -> LatticeModel:
    """The shared model of this value.  The arguments are checked first:
    True == 1 and 2.0 == 2 hash alike, so an unchecked lookup would hand
    rational(True) the model of n = 1, or file a bad model under its key."""
    _check_model_args(kind, n, genus)
    return _shared_model(kind, n, genus)


@lru_cache(maxsize=64)
def _shared_model(kind: str, n: int, genus: int) -> LatticeModel:
    return LatticeModel(kind, n, genus)


def _check_same_model(a: LatticeModel, b: LatticeModel):
    # the shared models make identity the common case; an equal model
    # built directly still passes
    if a is not b and a != b:
        raise ValueError("incompatible lattice models")


class HomClass(_Record):
    """A homology class: an integer coefficient vector in basis order."""

    _fields = ("model", "coeffs")

    def __init__(self, model: LatticeModel, coeffs: tuple):
        if len(coeffs) != model.rank:
            raise ValueError("coefficient vector length does not match rank")
        for c in coeffs:
            # type(), not isinstance: a bool is an int and would pass
            if type(c) is not int:
                raise TypeError("homology coefficients must be exact integers")
        # item writes: the fastest way past the frozen __setattr__, and a
        # reduction or reflection builds a class per step
        d = self.__dict__
        d["model"] = model
        d["coeffs"] = coeffs

    @classmethod
    def _from_ints(cls, model: LatticeModel, coeffs: tuple) -> "HomClass":
        """The class with these coefficients, unchecked: the caller built
        ``coeffs`` as a tuple of ``model.rank`` ints."""
        x = object.__new__(cls)
        d = x.__dict__
        d["model"] = model
        d["coeffs"] = coeffs
        return x

    def square(self) -> int:
        return self._square

    @_kept
    def _square(self) -> int:
        # kept on the class for every reflection along it; equality and
        # hash read the fields only
        return _gram_product(self.model, self.coeffs, self.coeffs)

    def __add__(self, other):
        _check_same_model(self.model, other.model)
        return HomClass(self.model, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        _check_same_model(self.model, other.model)
        return HomClass(self.model, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return HomClass(self.model, tuple(-a for a in self.coeffs))

    def __rmul__(self, k):
        # the constructor's rule: a bool is an int, but no coefficient
        if type(k) is not int:
            raise TypeError("homology classes scale by integers only")
        return HomClass(self.model, tuple(k * a for a in self.coeffs))

    __mul__ = __rmul__


def _check_exact(value, message: str):
    # ints and Fractions only: a bool is an int, and Fraction(value)
    # would read floats and strings such as '1e-3' or '٣'
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(f"{message}, not {type(value).__name__}s")


class FormClass(_Record):
    """A cohomology class: exact rational coefficients in basis order.

    Stored as integer numerators ``num`` over one positive denominator
    ``den``, the lcm of the reduced denominators, so gcd(den, *num) = 1
    and equal forms have equal (num, den).  Library arithmetic runs on
    ``num``; ``coeffs``, the Fraction tuple, is built on first read.
    """

    _fields = ("model", "num", "den")

    def __init__(self, model: LatticeModel, coeffs):
        if len(coeffs) != model.rank:
            raise ValueError("coefficient vector length does not match rank")
        for c in coeffs:
            _check_exact(c, "form coefficients must be exact rationals")
        den = math.lcm(*(c.denominator for c in coeffs))
        d = self.__dict__
        d["model"] = model
        d["num"] = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        d["den"] = den

    @classmethod
    def _from_num(cls, model: LatticeModel, num: tuple, den: int) -> "FormClass":
        """The form num/den from integer numerators, reduced to lowest terms."""
        if den <= 0:
            raise ValueError("denominator must be positive")
        g = math.gcd(den, *num)
        if g != 1:
            num, den = tuple(a // g for a in num), den // g
        form = object.__new__(cls)
        d = form.__dict__
        d["model"] = model
        d["num"] = tuple(num)
        d["den"] = den
        return form

    @_kept
    def coeffs(self) -> tuple:
        return tuple(Fraction(a, self.den) for a in self.num)

    def __repr__(self):
        return f"FormClass(model={self.model!r}, coeffs={self.coeffs!r})"

    def _combine(self, other, sign):
        _check_same_model(self.model, other.model)
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
        _check_exact(k, "forms scale by exact rationals only")
        return FormClass._from_num(self.model, tuple(k.numerator * a for a in self.num), k.denominator * self.den)

    __mul__ = __rmul__


class _ClassTable(dict):
    """The shared classes of one model, keyed by their nonzero
    (index, coeff) terms in index order, so each class has one key.

    A missing key builds its class on first lookup, so a loop that holds
    the table reads each generator with one dict lookup, builds no class
    per step, and the square kept on each class is computed once per
    process.

    ``terms`` maps the id of each class in the table back to its key,
    the support that every reflection along the class reads.  The table
    holds its classes for as long as it lives, so no other class can
    share one of these ids.  The key is not kept on the class itself: a
    fourth entry in the class's vars() would unshare the keys of the
    instance dicts, and every class keeping a square would pay for it.
    """

    def __init__(self, model: LatticeModel):
        super().__init__()
        self.model = model
        self.terms = {}

    def __missing__(self, terms: tuple) -> HomClass:
        coeffs = [0] * self.model.rank
        for i, c in terms:
            coeffs[i] = c
        x = self[terms] = HomClass(self.model, tuple(coeffs))
        self.terms[id(x)] = terms
        return x


def _gram_product(model: LatticeModel, u, v) -> int:
    """u^T gram v on raw integer coefficient sequences."""
    off = model.e_offset
    if model.kind == RATIONAL:
        head = u[0] * v[0]
    else:
        head = u[0] * v[1] + u[1] * v[0]
    return head - sum(map(mul, u[off:], v[off:]))


def _gram_vec(model: LatticeModel, v) -> tuple:
    """G v on a raw integer coefficient sequence, in O(r): G keeps H (or
    swaps T and F) and negates every E_i coefficient."""
    head = (v[0],) if model.kind == RATIONAL else (v[1], v[0])
    return head + tuple(map(neg, v[model.e_offset:]))


def pairing(x: HomClass, y: HomClass) -> int:
    """The intersection pairing x.y."""
    _check_same_model(x.model, y.model)
    return _gram_product(x.model, x.coeffs, y.coeffs)


def form_pairing(tau: FormClass, x) -> Fraction:
    """Evaluate the form tau on the class x (or on a form), exactly."""
    _check_same_model(tau.model, x.model)
    if isinstance(x, FormClass):
        return Fraction(_gram_product(tau.model, tau.num, x.num), tau.den * x.den)
    return Fraction(_gram_product(tau.model, tau.num, x.coeffs), tau.den)


def _reflection(gamma: HomClass):
    """The factor q = 2 / gamma.gamma and the nonzero entries of gamma
    and of G gamma.

    Each entry list holds (index, value) pairs; a twist core has at most
    four.  The reflection along gamma is x -> x - q (G gamma . x) gamma,
    so it reads x only on the support of G gamma and changes it only on
    the support of gamma.  q reads the square kept on gamma, and a class
    from the model's table hands over its key as the support, so only a
    class built elsewhere scans its r coefficients.
    """
    model = gamma.model
    s = gamma._square
    if s not in _ADMISSIBLE_SQUARES:
        raise ValueError("reflection undefined for this square")
    q = 2 // s  # exact: every admissible square divides 2
    support = model._classes.terms.get(id(gamma))
    if support is None:
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
    _check_same_model(gamma.model, beta.model)
    return HomClass(beta.model, _reflect_coeffs(gamma, beta.coeffs))


def _reflect_coeffs(gamma: HomClass, x) -> tuple:
    """The reflection along gamma on a raw integer coefficient sequence."""
    q, support, dual = _reflection(gamma)
    c = q * sum(d * x[i] for i, d in dual)
    out = list(x)
    for i, g in support:
        out[i] -= c * g
    return tuple(out)


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

@lru_cache(maxsize=64)
def mat_identity(rank: int) -> tuple:
    # built once per rank; its rows are tuples, so sharing it is safe
    return tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank))


def mat_vec(a: tuple, v) -> tuple:
    return tuple(sum(map(mul, row, v)) for row in a)


def mat_transpose(a: tuple) -> tuple:
    return tuple(zip(*a))


def _mat_reflect(gamma: HomClass, a: tuple) -> tuple:
    """The product R(gamma)·a of the reflection matrix with a.

    Column j changes by c_j gamma with c_j = 2 (G gamma . a_j) / s, so
    the coefficients are read from the rows of a in the support of
    G gamma and only the rows in the support of gamma are rewritten; the
    other row tuples are shared.  For a twist core both supports have at
    most four entries, so the arithmetic is O(k) for k columns, and the
    dot row and each rewritten row are built by mapping add or sub over
    whole rows; a factor of +-1 needs no multiplication.  The entries of
    a are not checked: callers start from the identity or from a checked
    IsometryMatrix and change it only by reflections.
    """
    q, support, dual = _reflection(gamma)
    dots = None
    for i, d in dual:
        term = a[i] if d == 1 else map(neg, a[i]) if d == -1 else map(d.__mul__, a[i])
        dots = term if dots is None else map(add, dots, term)
    dots = tuple(dots)
    rows = list(a)
    for i, g in support:
        m = q * g
        if m == 1:
            rows[i] = tuple(map(sub, rows[i], dots))
        elif m == -1:
            rows[i] = tuple(map(add, rows[i], dots))
        else:
            rows[i] = tuple(map(sub, rows[i], map(m.__mul__, dots)))
    return tuple(rows)

