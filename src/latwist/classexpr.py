"""Parsing, printing, and JSON serialization of class expressions.

The text grammar is a signed sum of terms, each an optional coefficient
followed by a basis symbol:

    expr := ['+'|'-'] term (('+'|'-') term)*
    term := [integer | rational] ['*'] symbol
    symbol := H | T | F | E<k>      (case-insensitive, no leading zeros)

"0" alone denotes the zero class.  Homology classes take integer
coefficients only; forms also accept rationals written p/q.  Repeated
symbols accumulate.  Printing is canonical (basis order, zero terms
omitted), so parse(print(x)) == x and printing is injective per model.

Parsing builds no Fraction: it accumulates integer numerators over the
lcm of the term denominators, and parse_form hands them to the form
constructor, which reduces them to lowest terms.

The JSON wire format used by every CLI command is

    {"model": {"type": "rational", "n": N}, "coeffs": [...]}
    {"model": {"type": "ruled", "genus": H, "n": N}, "coeffs": [...]}

with coefficients as integers or "p/q" strings.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .lattice import RATIONAL, RULED, FormClass, HomClass, LatticeModel


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
    (?:(?P<num>\d+)\s*(?:/\s*(?P<den>\d+))?\s*\*?\s*)?
    (?P<sym>[A-Za-z]+)(?P<idx>\d*)
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


def _symbol_index(model: LatticeModel, sym: str, idx: str, pos: int) -> int:
    if sym == "E":
        if not idx:
            raise ParseError("symbol 'E' needs an index", pos)
        if len(idx) > 1 and idx[0] == "0":
            raise ParseError(f"leading zeros in index 'E{idx}'", pos)
        i = int(idx)
        if not 1 <= i <= model.n:
            raise ParseError(f"index out of range: E{i} (model has n={model.n})", pos)
        return model.e_offset + i - 1
    if idx:
        raise ParseError(f"unknown symbol '{sym}{idx}'", pos)
    if sym == "H":
        if model.kind != RATIONAL:
            raise ParseError("symbol 'H' is not in the ruled model", pos)
        return 0
    if sym in ("T", "F"):
        if model.kind != RULED:
            raise ParseError(f"symbol '{sym}' is not in the rational model", pos)
        return 0 if sym == "T" else 1
    raise ParseError(f"unknown symbol '{sym}'", pos)


def _parse(text: str, model: LatticeModel, allow_rational: bool):
    """Integer numerators over one denominator, the lcm of the term denominators."""
    terms = _scan(text)
    symbols = {t[3] for t in terms}
    if "H" in symbols and symbols & {"T", "F"}:
        raise ParseError("mixed basis symbols")
    num = [0] * model.rank
    den = 1
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
        num[_symbol_index(model, sym, idx, pos)] += sign * p * (den // q)
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
    parts = []
    for name, c in zip(x.model.basis_names, x.coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if mag == 1:
            body = name
        elif isinstance(mag, Fraction) and mag.denominator != 1:
            body = f"{mag.numerator}/{mag.denominator}*{name}"
        else:
            body = f"{int(mag)}{name}"
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    sign0, body0 = parts[0]
    out = [body0 if sign0 == "+" else f"-{body0}"]
    for sign, body in parts[1:]:
        out.append(f" {sign} {body}")
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
        m = re.fullmatch(r"\s*(-?\d+)\s*/\s*(-?\d+)\s*", v)
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
