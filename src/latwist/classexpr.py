"""Parsing, printing, and JSON serialization of class expressions.

The text grammar is a signed sum of terms, each an optional coefficient
followed by a basis symbol:

    expr := ['+'|'-'] term (('+'|'-') term)*
    term := [integer | rational] ['*'] symbol
    symbol := H | T | F | E<k>      (case-insensitive; k without leading zeros)

Every integer in it, a coefficient, numerator, denominator or index, is
written in the ASCII digits 0-9, as are those of the JSON "p/q" strings.

"0" alone denotes the zero class.  Homology classes take integer
coefficients only; forms also accept rationals written p/q.  Repeated
symbols accumulate.  Printing is canonical (basis order, zero terms
omitted), so parse(print(x)) == x and printing is injective per model.

Parsing builds no Fraction: it accumulates integer numerators over the
lcm of the term denominators, and parse_form hands them to the form
constructor, which reduces them to lowest terms.

The JSON wire format of classes and forms is

    {"model": {"type": "rational", "n": N}, "coeffs": [...]}
    {"model": {"type": "ruled", "genus": H, "n": N}, "coeffs": [...]}

with coefficients as integers or "p/q" strings.  On the command line
only crosscheck prints classes in it, and only decompose reads it, for
the model object of its matrix file; every other command prints classes
as text.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .lattice import RATIONAL, FormClass, HomClass, LatticeModel


class ParseError(ValueError):
    """A class-expression syntax or validation error, with a position."""

    def __init__(self, message, pos=None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


_TERM = re.compile(
    r"""\s*
    (?P<sign>[+-])?\s*
    (?:(?P<num>[0-9]+)\s*(?:/\s*(?P<den>[0-9]+))?\s*\*?\s*)?
    (?P<sym>[A-Za-z]+)(?P<idx>[0-9]*)
    """,
    re.VERBOSE,
)


def _scan(text: str):
    """Split an expression into raw (sign, num, den, symbol, index, pos) terms."""
    if not text or not text.strip():
        raise ParseError("empty input")
    if text.strip() == "0":
        return []
    terms = []
    pos = 0
    end = len(text.rstrip())
    first = True
    while pos < end:
        m = _TERM.match(text, pos)
        if m is None:
            raise ParseError("cannot parse term", pos)
        sign, num, den, sym, idx = m.groups()
        if sign is None and not first:
            raise ParseError("expected '+' or '-' between terms", m.start("sym"))
        terms.append((-1 if sign == "-" else 1, num, den, sym.upper(), idx, m.start("sym")))
        first = False
        pos = m.end()
    return terms


def _symbol_error(model: LatticeModel, sym: str, idx: str, pos: int) -> ParseError:
    """The ParseError for a symbol that missed the model's basis names,
    which are exactly the valid symbols."""
    if sym == "E":
        if not idx:
            return ParseError("symbol 'E' needs an index", pos)
        if len(idx) > 1 and idx[0] == "0":
            return ParseError(f"leading zeros in index 'E{idx}'", pos)
        return ParseError(f"index out of range: E{int(idx)} (model has n={model.n})", pos)
    if idx:
        return ParseError(f"unknown symbol '{sym}{idx}'", pos)
    if sym == "H":
        return ParseError("symbol 'H' is not in the ruled model", pos)
    if sym in ("T", "F"):
        return ParseError(f"symbol '{sym}' is not in the rational model", pos)
    return ParseError(f"unknown symbol '{sym}'", pos)


def _parse(text: str, model: LatticeModel, allow_rational: bool):
    """Integer numerators over one denominator, the lcm of the term denominators."""
    terms = _scan(text)
    symbols = {t[3] for t in terms}
    if "H" in symbols and symbols & {"T", "F"}:
        raise ParseError("mixed basis symbols")
    num = [0] * model.rank
    den = 1
    # the model's basis names are exactly the valid symbols; a miss goes
    # to _symbol_error, which names what is wrong with it
    index = model._basis_index
    for sign, p, q, sym, idx, pos in terms:
        if q is None:
            p, q = (1 if p is None else int(p)), 1
        elif not allow_rational:
            raise ParseError("non-integer coefficient in a homology class", pos)
        elif int(q) == 0:
            raise ParseError(f"malformed rational '{p}/{q}'", pos)
        else:
            p, q = int(p), int(q)
            if den % q:
                # widen to the lcm; every numerator so far scales with it
                scale = q // math.gcd(den, q)
                num = [c * scale for c in num]
                den *= scale
        i = index.get(sym + idx)
        if i is None:
            raise _symbol_error(model, sym, idx, pos)
        num[i] += sign * p * (den // q)
    return num, den


def parse_class(text: str, model: LatticeModel) -> HomClass:
    """Parse an integer class expression into a HomClass."""
    num, _ = _parse(text, model, allow_rational=False)
    return HomClass(model, tuple(num))


def parse_form(text: str, model: LatticeModel) -> FormClass:
    """Parse a class expression with rational coefficients into a FormClass."""
    num, den = _parse(text, model, allow_rational=True)
    return FormClass._from_num(model, tuple(num), den)


def print_class(x) -> str:
    """Canonical text form of a HomClass or FormClass."""
    out = []
    for name, c in zip(x.model.basis_names, x.coeffs):
        if c:
            if c < 0:
                out.append(" - ")
                c = -c
            else:
                out.append(" + ")
            if c != 1:
                # ints and Fractions both carry numerator and denominator
                d = c.denominator
                name = f"{c.numerator}{name}" if d == 1 else f"{c.numerator}/{d}*{name}"
            out.append(name)
    if not out:
        return "0"
    out[0] = "-" if out[0] == " - " else ""
    return "".join(out)


def model_to_json(model: LatticeModel) -> dict:
    if model.kind == RATIONAL:
        return {"type": "rational", "n": model.n}
    return {"type": "ruled", "genus": model.genus, "n": model.n}


def _model_size(obj: dict, key: str) -> int:
    # JSON true and 3.9 are not sizes; int() would read them as 1 and 3
    value = obj.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"model field {key!r} must be an integer")
    return value


def model_from_json(obj) -> LatticeModel:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError("model object must have a 'type' field")
    if obj["type"] == "rational":
        return LatticeModel.rational(_model_size(obj, "n"))
    if obj["type"] == "ruled":
        return LatticeModel.ruled(_model_size(obj, "genus"), _model_size(obj, "n"))
    raise ValueError(f"unknown model type {obj['type']!r}")


def _coeff_to_json(c):
    c = Fraction(c)
    if c.denominator == 1:
        return int(c)
    return f"{c.numerator}/{c.denominator}"


def _coeff_from_json(v) -> Fraction:
    if isinstance(v, bool):
        raise ValueError("coefficients must be integers or 'p/q' strings")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        m = re.fullmatch(r"\s*(-?[0-9]+)\s*/\s*(-?[0-9]+)\s*", v)
        if not m or int(m.group(2)) == 0:
            raise ValueError(f"malformed rational coefficient {v!r}")
        return Fraction(int(m.group(1)), int(m.group(2)))
    raise ValueError("coefficients must be integers or 'p/q' strings")


def class_to_json(x) -> dict:
    return {
        "model": model_to_json(x.model),
        "coeffs": [_coeff_to_json(c) for c in x.coeffs],
    }


def _require_object(obj, what: str):
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")


def _coeff_list(obj) -> list:
    coeffs = obj.get("coeffs")
    if not isinstance(coeffs, list):
        raise ValueError("coeffs must be a list of coefficients")
    return [_coeff_from_json(v) for v in coeffs]


def class_from_json(obj) -> HomClass:
    _require_object(obj, "class")
    model = model_from_json(obj.get("model"))
    coeffs = _coeff_list(obj)
    for c in coeffs:
        if c.denominator != 1:
            raise ValueError("homology classes take integer coefficients")
    return HomClass(model, tuple(int(c) for c in coeffs))


def form_from_json(obj) -> FormClass:
    _require_object(obj, "form")
    model = model_from_json(obj.get("model"))
    return FormClass(model, tuple(_coeff_list(obj)))
