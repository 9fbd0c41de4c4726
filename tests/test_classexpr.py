"""Parser and printer tests, including the JSON wire format."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latwist.classexpr import (
    ParseError,
    class_from_json,
    class_to_json,
    form_from_json,
    model_from_json,
    model_to_json,
    parse_class,
    parse_form,
    print_class,
)
from latwist.lattice import FormClass, HomClass, LatticeModel


R2 = LatticeModel.rational(2)
R3 = LatticeModel.rational(3)


def test_parse_class_examples():
    assert parse_class("H - E1 - E2", R2).coeffs == (1, -1, -1)
    m = LatticeModel.ruled(1, 1)
    assert parse_class("2T + 3F - E1", m).coeffs == (2, 3, -1)


def test_parse_mixed_basis():
    with pytest.raises(ParseError, match="mixed basis symbols"):
        parse_class("H + T", R2)
    with pytest.raises(ParseError, match="mixed basis symbols"):
        parse_class("H + T", LatticeModel.ruled(1, 1))


def test_parse_wrong_model_symbol():
    with pytest.raises(ParseError, match="not in the rational model"):
        parse_class("T + F", R2)
    with pytest.raises(ParseError, match="not in the ruled model"):
        parse_class("2H", LatticeModel.ruled(1, 1))


def test_parse_form_examples():
    assert parse_form("3H - E1 - E2 - E3", R3).coeffs == (3, -1, -1, -1)
    assert parse_form("3H - 1/2 E1", LatticeModel.rational(1)).coeffs == (3, Fraction(-1, 2))
    with pytest.raises(ParseError, match="index out of range"):
        parse_form("3H - E9", R3)


def test_parse_class_rejects_rational_coefficient():
    with pytest.raises(ParseError, match="homology class"):
        parse_class("1/2 E1", R2)


def test_parse_rejects_leading_zero_index():
    with pytest.raises(ParseError, match="leading zeros"):
        parse_class("E01", R2)


def test_parse_reads_an_index_in_ascii_digits_only():
    # an index in other decimal digits is not a basis name's spelling
    with pytest.raises(ParseError, match="cannot parse term") as exc:
        parse_class("H-E\u0661", R2)
    assert exc.value.pos == 3
    # nor is a coefficient, numerator or denominator in them (Arabic-Indic
    # one and two; int() reads both)
    for text, pos in (("\u0662H - E1", 0), ("H - \u0662E1", 1), ("\u0661/2 E1", 0), ("1/\u0662 E1", 0)):
        for parse in (parse_class, parse_form):
            with pytest.raises(ParseError, match="cannot parse term") as exc:
                parse(text, R2)
            assert exc.value.pos == pos
    assert parse_form("1/2 E1", R2).coeffs == (0, Fraction(1, 2), 0)
    model = {"type": "rational", "n": 1}
    for coeff in ("\u0661/\u0662", "1/\u0662", "\u0661/2"):
        with pytest.raises(ValueError, match="malformed rational coefficient"):
            form_from_json({"model": model, "coeffs": [0, coeff]})


def test_parse_rejects_malformed_rational():
    with pytest.raises(ParseError, match="malformed rational"):
        parse_form("1/0 E1", R2)


def test_parse_zero_and_empty():
    assert parse_class("0", R2).coeffs == (0, 0, 0)
    with pytest.raises(ParseError, match="empty input"):
        parse_class("   ", R2)
    with pytest.raises(ParseError, match="empty input"):
        parse_class("", R2)


def test_parse_accumulates_and_ignores_case():
    assert parse_class("e1 + E1 + h", R2).coeffs == (1, 2, 0)


def test_parse_star_and_spacing():
    assert parse_class("2*E1-3* E2", R2).coeffs == (0, 2, -3)
    assert parse_form("3/2*E1", R2).coeffs == (0, Fraction(3, 2), 0)


def test_parse_garbage():
    with pytest.raises(ParseError, match="unknown symbol"):
        parse_class("2X", R2)
    with pytest.raises(ParseError):
        parse_class("H + ", R2)
    with pytest.raises(ParseError):
        parse_class("H E1", R2)
    with pytest.raises(ParseError, match="unknown symbol"):
        parse_class("H1", R2)


def test_parse_error_carries_position():
    try:
        parse_class("H - E9", R3)
    except ParseError as err:
        assert err.pos == 4
    else:
        raise AssertionError("expected ParseError")


def test_print_class_examples():
    assert print_class(HomClass(R2, (1, -1, -1))) == "H - E1 - E2"
    assert print_class(HomClass(R2, (0, 0, 0))) == "0"
    assert print_class(HomClass(R3, (0, 1, -1, 0))) == "E1 - E2"
    assert print_class(HomClass(R2, (-2, 0, 3))) == "-2H + 3E2"
    assert print_class(FormClass(R2, (3, Fraction(-3, 2), 0))) == "3H - 3/2*E1"
    assert print_class(FormClass(R2, (0, Fraction(-3, 2), Fraction(4, 2)))) == "-3/2*E1 + 2E2"
    assert print_class(FormClass(R2, (Fraction(-1), 0, Fraction(1, 12)))) == "-H + 1/12*E2"
    assert print_class(HomClass(LatticeModel.ruled(1, 1), (0, -1, 5))) == "-F + 5E1"


def test_print_parse_round_trip_on_forms():
    tau = FormClass(R3, (Fraction(7, 3), Fraction(-1, 2), 0, 5))
    assert parse_form(print_class(tau), R3) == tau


MODELS = st.one_of(
    st.integers(0, 8).map(LatticeModel.rational),
    st.tuples(st.integers(1, 3), st.integers(0, 6)).map(lambda t: LatticeModel.ruled(*t)),
)


@given(MODELS, st.data())
@settings(max_examples=300, deadline=None)
def test_round_trip_property(model, data):
    coeffs = tuple(data.draw(st.integers(-99, 99)) for _ in range(model.rank))
    x = HomClass(model, coeffs)
    assert parse_class(print_class(x), model) == x


@given(MODELS, st.data())
@settings(max_examples=200, deadline=None)
def test_json_round_trip(model, data):
    coeffs = tuple(data.draw(st.integers(-99, 99)) for _ in range(model.rank))
    x = HomClass(model, coeffs)
    assert class_from_json(class_to_json(x)) == x
    num = data.draw(st.integers(-20, 20))
    den = data.draw(st.integers(1, 9))
    tau = FormClass(model, (Fraction(num, den),) + coeffs[1:])
    assert form_from_json(class_to_json(tau)) == tau


def test_model_json_round_trip():
    for m in (R2, LatticeModel.ruled(2, 3)):
        assert model_from_json(model_to_json(m)) == m
    with pytest.raises(ValueError):
        model_from_json({"type": "weird"})


def test_model_json_rejects_non_integer_sizes():
    for bad in (3.9, 3.0, True, False, "4", None, [3]):
        with pytest.raises(ValueError, match="'n' must be an integer"):
            model_from_json({"type": "rational", "n": bad})
        with pytest.raises(ValueError, match="'genus' must be an integer"):
            model_from_json({"type": "ruled", "genus": bad, "n": 2})
        with pytest.raises(ValueError, match="'n' must be an integer"):
            model_from_json({"type": "ruled", "genus": 1, "n": bad})
    with pytest.raises(ValueError, match="'n' must be an integer"):
        model_from_json({"type": "rational"})
    assert model_from_json({"type": "ruled", "genus": 2, "n": 0}) == LatticeModel.ruled(2, 0)


def test_json_decoders_reject_non_objects():
    from latwist.decompose import matrix_from_json

    for bad in ([], [["model"]], "rational", 3, None, True):
        for decode in (class_from_json, form_from_json, matrix_from_json):
            with pytest.raises(ValueError, match="must be a JSON object"):
                decode(bad)


def test_json_decoders_name_missing_and_malformed_fields():
    from latwist.decompose import matrix_from_json

    model = {"type": "rational", "n": 1}
    for bad in ({"model": model}, {"model": model, "coeffs": 3}, {"model": model, "coeffs": "1, 2"}):
        for decode in (class_from_json, form_from_json):
            with pytest.raises(ValueError, match="coeffs must be a list of coefficients"):
                decode(bad)
    for bad in ({"model": model}, {"model": model, "entries": None}):
        with pytest.raises(ValueError, match="entries must be a list of rows"):
            matrix_from_json(bad)
    for decode in (class_from_json, form_from_json, matrix_from_json):
        with pytest.raises(ValueError, match="model object must have a 'type' field"):
            decode({"coeffs": [1, 0], "entries": [[1, 0], [0, 1]]})


# JSON values as json.load returns them, with the shapes that have tripped
# decoders: bools (an int subclass), floats, ints far past any machine
# word, strings that look like numbers, and nested containers
_JSON_SCALARS = st.one_of(
    st.booleans(),
    st.floats(),
    st.integers(-5, 5),
    st.integers(min_value=2**64, max_value=10**40),
    st.integers(max_value=-(2**64), min_value=-(10**40)),
    st.sampled_from(["1/2", "-4/6", "3/0", "2", "x", "", "1e3"]),
    st.none(),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=5), st.dictionaries(st.text(max_size=3), inner, max_size=2)),
    max_leaves=8,
)
_MODEL_SIZES = st.one_of(st.integers(-1, 4), st.booleans(), st.floats(), st.just(10**30), st.just("3"))
_MODELS = st.one_of(
    st.fixed_dictionaries({"type": st.just("rational")}, optional={"n": _MODEL_SIZES}),
    st.fixed_dictionaries({"type": st.just("ruled")}, optional={"genus": _MODEL_SIZES, "n": _MODEL_SIZES}),
    st.fixed_dictionaries({"type": st.sampled_from(["weird", "RATIONAL", 3])}),
    _JSON_VALUES,
)


@st.composite
def _fuzzed_objects(draw, key):
    """A decoder input: mostly well-formed, then broken in one or more places."""
    n = draw(st.integers(0, 3))
    kind = draw(st.sampled_from(["rational", "ruled"]))
    model = {"type": "rational", "n": n} if kind == "rational" else {"type": "ruled", "genus": 1, "n": n}
    rank = n + (1 if kind == "rational" else 2)
    entry = st.one_of(st.integers(-3, 3), _JSON_SCALARS)
    if key == "coeffs":
        value = draw(st.lists(entry, min_size=rank, max_size=rank))
    else:
        # rows of the right length, or ragged ones
        value = draw(st.lists(st.lists(entry, min_size=rank, max_size=rank) | st.lists(entry, max_size=rank + 1),
                              min_size=rank, max_size=rank))
    obj = {"model": model, key: value}
    if draw(st.booleans()):
        obj["model"] = draw(_MODELS)
    if draw(st.booleans()):
        obj[key] = draw(_JSON_VALUES)
    for k in draw(st.sets(st.sampled_from(["model", key]), max_size=2)):
        del obj[k]
    return obj


@given(_fuzzed_objects("coeffs"))
@settings(max_examples=200, deadline=None)
def test_class_json_decoders_fuzz(obj):
    # every malformed input is a ValueError (an input error, exit 2, at the
    # command line); everything accepted round-trips
    for decode in (class_from_json, form_from_json):
        try:
            x = decode(obj)
        except ValueError:
            continue
        assert len(x.coeffs) == x.model.rank == len(obj["coeffs"])
        assert model_to_json(x.model) == obj["model"]
        assert decode(class_to_json(x)) == x


@given(_fuzzed_objects("entries"))
@settings(max_examples=200, deadline=None)
def test_matrix_json_decoder_fuzz(obj):
    from latwist.decompose import matrix_from_json, matrix_to_json

    try:
        M = matrix_from_json(obj)
    except (ValueError, TypeError):
        # TypeError only for a non-integer entry in rows of the right shape
        return
    assert [list(row) for row in M.entries] == obj["entries"]
    assert all(type(v) is int for row in M.entries for v in row)
    assert matrix_from_json(matrix_to_json(M)) == M


# -- the integer parser against the Fraction-accumulating one it replaced -----

# the grammar's term, kept here so that the reference does not change with
# the module's tokenizer
_REFERENCE_TERM = re.compile(
    r"""\s*
    (?P<sign>[+-])?\s*
    (?:(?P<num>[0-9]+)\s*(?:/\s*(?P<den>[0-9]+))?\s*\*?\s*)?
    (?P<sym>[A-Za-z]+)(?P<idx>[0-9]*)
    """,
    re.VERBOSE,
)


def _reference_scan(text):
    if not text or not text.strip():
        raise ParseError("empty input")
    if text.strip() == "0":
        return []
    terms = []
    pos = 0
    first = True
    while pos < len(text):
        m = _REFERENCE_TERM.match(text, pos)
        if not m or m.group("sym") is None:
            raise ParseError("cannot parse term", pos)
        if m.group("sign") is None and not first:
            raise ParseError("expected '+' or '-' between terms", m.start("sym"))
        terms.append(
            (
                -1 if m.group("sign") == "-" else 1,
                m.group("num"),
                m.group("den"),
                m.group("sym").upper(),
                m.group("idx"),
                m.start("sym"),
            )
        )
        first = False
        pos = m.end()
        if text[pos:].strip() == "":
            break
    return terms


def _reference_symbol_index(model, sym, idx, pos):
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
        if model.kind != "rational":
            raise ParseError("symbol 'H' is not in the ruled model", pos)
        return 0
    if sym in ("T", "F"):
        if model.kind != "ruled":
            raise ParseError(f"symbol '{sym}' is not in the rational model", pos)
        return 0 if sym == "T" else 1
    raise ParseError(f"unknown symbol '{sym}'", pos)


def _reference_parse(text, model, allow_rational):
    terms = _reference_scan(text)
    symbols = {t[3] for t in terms}
    if "H" in symbols and symbols & {"T", "F"}:
        raise ParseError("mixed basis symbols")
    coeffs = [Fraction(0)] * model.rank
    for sign, num, den, sym, idx, pos in terms:
        if den is not None:
            if not allow_rational:
                raise ParseError("non-integer coefficient in a homology class", pos)
            if int(den) == 0:
                raise ParseError(f"malformed rational '{num}/{den}'", pos)
            value = Fraction(int(num), int(den))
        else:
            value = Fraction(1 if num is None else int(num))
        coeffs[_reference_symbol_index(model, sym, idx, pos)] += sign * value
    return coeffs


def _reference_parse_class(text, model):
    return HomClass(model, tuple(int(c) for c in _reference_parse(text, model, False)))


def _reference_parse_form(text, model):
    return FormClass(model, tuple(_reference_parse(text, model, True)))


_COEFFICIENTS = st.one_of(
    st.just(""),
    st.integers(0, 120).map(str),
    st.tuples(st.integers(0, 60), st.integers(1, 16)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.sampled_from(["0/7", "6/8", "12/18", "3/0", "0/0", "007", "0", " 5 / 3 ", "2 /4"]),
)
_LATER_SIGNS = ["+", "-", " + ", " - ", "+ ", " -", "+", "-", " - ", ""]


@st.composite
def _terms(draw, model, first):
    sign = draw(st.sampled_from(["", "", "+", "-", " - "] if first else _LATER_SIGNS))
    coeff = draw(_COEFFICIENTS)
    star = draw(st.sampled_from(["", "*", " * ", " "])) if coeff else ""
    if draw(st.integers(0, 9)):
        sym = draw(st.sampled_from(model.basis_names))
        sym = sym.lower() if draw(st.booleans()) else sym
    else:
        # wrong-model, unknown, unindexed, leading-zero and out-of-range symbols
        sym = draw(st.sampled_from(
            ["H", "T", "F", "X", "Hx", "H1", "E", "E0", "E01", "E007", f"E{model.n + 1}", "E99"]
        ))
    return sign + coeff + star + sym


@st.composite
def _expressions(draw, model):
    count = draw(st.integers(0, 5))
    if count == 0:
        return draw(st.sampled_from(["0", " 0 ", "", "   ", "+", "-", "H +", "2 3H", "H E1", "*H", "1/2"]))
    text = "".join(draw(_terms(model, first=i == 0)) for i in range(count))
    return text + draw(st.sampled_from(["", "", "", " ", "\t", "  ", " +", "#"]))


def _outcome(parse, text, model):
    try:
        value = parse(text, model)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "pos", None)
    return type(value), value, value.coeffs, getattr(value, "num", None), getattr(value, "den", None)


@given(
    st.one_of(
        st.integers(0, 12).map(LatticeModel.rational),
        st.tuples(st.integers(1, 3), st.integers(0, 6)).map(lambda t: LatticeModel.ruled(*t)),
    ),
    st.data(),
)
@settings(max_examples=800, deadline=None)
def test_parse_matches_fraction_reference(model, data):
    text = data.draw(_expressions(model))
    assert _outcome(parse_class, text, model) == _outcome(_reference_parse_class, text, model)
    assert _outcome(parse_form, text, model) == _outcome(_reference_parse_form, text, model)


# fixed cases for the order in which the first fault is named: syntax,
# then mixed symbols, then per term the coefficient and then the symbol
@pytest.mark.parametrize("text, model, class_outcome, form_outcome", [
    # mixed symbols come before the bad rational of a later term
    ("H + T - 1/0*E1", R3, "mixed basis symbols", "mixed basis symbols"),
    # a later term with no sign, before the unknown symbol after it
    ("H - E1 2E2 + X", R3, "expected '+' or '-' between terms (at position 8)",
     "expected '+' or '-' between terms (at position 8)"),
    ("E0", R3, "index out of range: E0 (model has n=3) (at position 0)",
     "index out of range: E0 (model has n=3) (at position 0)"),
    ("E01", R3, "leading zeros in index 'E01' (at position 0)",
     "leading zeros in index 'E01' (at position 0)"),
    ("h - e3", R3, (1, 0, 0, -1), (1, 0, 0, -1)),
    ("2t + f - e1", LatticeModel.ruled(1, 1), (2, 1, -1), (2, 1, -1)),
    ("H - E1\t", R3, (1, -1, 0, 0), (1, -1, 0, 0)),
    # the coefficient of a term before its symbol, and a class refuses a
    # rational before its zero denominator is looked at
    ("0/0*E1", R3, "non-integer coefficient in a homology class (at position 4)",
     "malformed rational '0/0' (at position 4)"),
    ("H + 0/0*E9", R3, "non-integer coefficient in a homology class (at position 8)",
     "malformed rational '0/0' (at position 8)"),
    ("H - X + 1/2 E1", R3, "unknown symbol 'X' (at position 4)", "unknown symbol 'X' (at position 4)"),
])
def test_parse_names_the_first_fault_in_order(text, model, class_outcome, form_outcome):
    for parse, reference, expected in ((parse_class, _reference_parse_class, class_outcome),
                                       (parse_form, _reference_parse_form, form_outcome)):
        outcome = _outcome(parse, text, model)
        assert outcome == _outcome(reference, text, model)
        if isinstance(expected, str):
            assert outcome[0] is ParseError and outcome[1] == expected
        else:
            assert outcome[2] == expected


# -- printing from the class table's support ----------------------------------

def _reference_print(x):
    # every coefficient in basis order, as the printer read them before it
    # took a table class's support
    out = []
    for name, c in zip(x.model.basis_names, x.coeffs):
        if c:
            sign = "-" if c < 0 else "+"
            c = abs(c)
            term = name if c == 1 else f"{c}{name}" if c.denominator == 1 else f"{c.numerator}/{c.denominator}*{name}"
            out.append(f"{sign} {term}")
    if not out:
        return "0"
    text = " ".join(out)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def test_print_class_reads_the_table_support():
    from latwist.cone import in_cone
    from latwist.reduction import cremona_reduce

    m12, mr = LatticeModel.rational(12), LatticeModel.ruled(2, 5)
    # fill both tables: the twist cores and witnesses the library looks up,
    # and keys of every sign and size
    cremona_reduce(parse_class("12H - 4E1 - 5E2 - 2E3 - 3E4 - 6E5 - 2E6 - 3E7 - 4E8 - 5E9 - E10", m12))
    in_cone(parse_form("T + 3F - E1 - E2 - 1/2 E3 - E4 - E5", mr))
    in_cone(parse_form("3H - 2E1 - 2E2 - 1/2 E3", m12))
    for model in (m12, mr):
        for terms in (((0, 2), (5, -1)), ((model.rank - 1, -3),), ((0, -1), (1, 1), (3, 7)), ()):
            model._classes[terms]
    for model, least in ((m12, 20), (mr, 5)):
        table = model._classes
        assert len(table) >= least
        for x in table.values():
            assert id(x) in table.terms
            assert print_class(x) == _reference_print(x)
            # a class outside the table with the same coefficients, and
            # the form with them, print alike
            twin = HomClass(model, x.coeffs)
            assert id(twin) not in table.terms
            assert print_class(twin) == print_class(FormClass(model, x.coeffs)) == print_class(x)
    tau = FormClass(m12, (Fraction(7, 3),) + (0,) * 11 + (Fraction(-1, 2),))
    assert print_class(tau) == _reference_print(tau) == "7/3*H - 1/2*E12"
