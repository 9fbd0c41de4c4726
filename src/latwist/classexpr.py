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


# one term: the whole term, as the first group, for findall, then its
# sign, coefficient numerator and denominator, letters and index
_TERM = re.compile(
    r"""(\s*
    (?P<sign>[+-])?\s*
    (?:(?P<num>[0-9]+)\s*(?:/\s*(?P<den>[0-9]+))?\s*\*?\s*)?
    (?P<sym>[A-Za-z]+)(?P<idx>[0-9]*))
    """,
    re.VERBOSE,
)


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


def _fault(text: str, model: LatticeModel, allow_rational: bool) -> ParseError:
    """The ParseError of the first fault in a text that _parse refused.

    Terms are matched one at a time from the start, so a fault has its
    position.  The order: empty input, then syntax, then mixed basis
    symbols, then term by term the coefficient and then the symbol.
    """
    if not text.strip():
        return ParseError("empty input")
    terms = []
    pos = 0
    end = len(text.rstrip())
    while pos < end:
        m = _TERM.match(text, pos)
        if m is None:
            return ParseError("cannot parse term", pos)
        if m["sign"] is None and terms:
            return ParseError("expected '+' or '-' between terms", m.start("sym"))
        terms.append(m)
        pos = m.end()
    symbols = {m["sym"].upper() for m in terms}
    if "H" in symbols and symbols & {"T", "F"}:
        return ParseError("mixed basis symbols")
    for m in terms:
        num, den, pos = m["num"], m["den"], m.start("sym")
        if den is not None:
            if not allow_rational:
                return ParseError("non-integer coefficient in a homology class", pos)
            if int(den) == 0:
                return ParseError(f"malformed rational '{num}/{den}'", pos)
        sym, idx = m["sym"].upper(), m["idx"]
        if sym + idx not in model._basis_index:
            return _symbol_error(model, sym, idx, pos)
    raise AssertionError(f"no fault in {text!r}")


def _parse(text: str, model: LatticeModel, allow_rational: bool):
    """Integer numerators over one denominator, the lcm of the term denominators.

    One findall reads a well-formed expression: its terms tile the text
    up to trailing space, every term after the first has a sign, and
    every symbol is a basis name.  Any other text goes to _fault.
    """
    body = text.rstrip()
    terms = _TERM.findall(body)
    if not terms:
        if body.lstrip() == "0":
            return [0] * model.rank, 1
        raise _fault(text, model, allow_rational)
    den = 1
    if "/" in body:
        # each "/" is a denominator or a syntax error: a class takes
        # none, and a zero denominator makes the lcm 0
        den = math.lcm(*[int(q) for _, _, _, q, _, _ in terms if q]) if allow_rational else 0
        if not den:
            raise _fault(text, model, allow_rational)
    num = [0] * model.rank
    # the model's basis names are exactly the valid symbols
    index = model._basis_index
    length = 0
    for term, sign, p, q, sym, idx in terms:
        i = index.get(sym + idx)
        if i is None:
            i = index.get(sym.upper() + idx)
        if i is None or not sign and length:
            raise _fault(text, model, allow_rational)
        length += len(term)
        c = (int(p) if p else 1) * (den // int(q) if q else den)
        num[i] += -c if sign == "-" else c
    if length != len(body):
        raise _fault(text, model, allow_rational)
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
    names = x.model.basis_names
    # a class of the model's table hands over its nonzero terms, the
    # support _reflection reads too; any other class or form is scanned
    terms = x.model._classes.terms.get(id(x))
    out = []
    for i, c in enumerate(x.coeffs) if terms is None else terms:
        if c:
            if c < 0:
                out.append(" - ")
                c = -c
            else:
                out.append(" + ")
            name = names[i]
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
