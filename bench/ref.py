"""Independent exact lattice arithmetic for building inputs and checking answers.

Nothing here imports latwist.  Answers are checked against this code and
against how each input was built, never against the library under test.
A class is a plain coefficient tuple in basis order: (H, E1, ..., En)
for the rational model, (T, F, E1, ..., En) for the ruled model.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

RATIONAL = "rational"
RULED = "ruled"


def head(kind):
    return 1 if kind == RATIONAL else 2


def dot(kind, u, v):
    """The intersection pairing u.v on coefficient tuples."""
    if kind == RATIONAL:
        h = u[0] * v[0]
    else:
        h = u[0] * v[1] + u[1] * v[0]
    off = head(kind)
    return h - sum(a * b for a, b in zip(u[off:], v[off:]))


def k0(kind, genus, n):
    if kind == RATIONAL:
        return (-3,) + (1,) * n
    return (-2, 2 * genus - 2) + (1,) * n


def unit(rank, i):
    return tuple(1 if j == i else 0 for j in range(rank))


def twist(kind, g, x):
    """Reflection along a square -2 class g, applied to a class or form x."""
    if dot(kind, g, g) != -2:
        raise ValueError("twist generators must have square -2")
    c = dot(kind, g, x)
    return tuple(a + c * b for a, b in zip(x, g))


def apply_word(kind, generators, x):
    """Apply a word listed in matrix order: the last generator acts first."""
    for g in reversed(generators):
        x = twist(kind, g, x)
    return x


def word_matrix(kind, rank, generators):
    """Rows of the matrix of a word, built column by column."""
    cols = [apply_word(kind, generators, unit(rank, j)) for j in range(rank)]
    return tuple(tuple(cols[j][i] for j in range(rank)) for i in range(rank))


@lru_cache(maxsize=None)
def rational_generators(n):
    """The K_0 twist generators E_i - E_j and H - E_i - E_j - E_k."""
    out = []
    for i, j in combinations(range(n), 2):
        c = [0] * (n + 1)
        c[1 + i], c[1 + j] = 1, -1
        out.append(tuple(c))
    for i, j, k in combinations(range(n), 3):
        c = [0] * (n + 1)
        c[0] = 1
        c[1 + i] = c[1 + j] = c[1 + k] = -1
        out.append(tuple(c))
    return tuple(out)


@lru_cache(maxsize=None)
def ruled_generators(n):
    """The K_0 twist generators E_i - E_j and F - E_i - E_j."""
    out = []
    for i, j in combinations(range(n), 2):
        c = [0] * (n + 2)
        c[2 + i], c[2 + j] = 1, -1
        out.append(tuple(c))
        c = [0] * (n + 2)
        c[1] = 1
        c[2 + i] = c[2 + j] = -1
        out.append(tuple(c))
    return tuple(out)


@lru_cache(maxsize=None)
def rational_roots(n):
    """Every square -2, K_0-null class for n <= 8 (the E_n root system)."""
    if n > 8:
        raise ValueError("the root system is finite only for n <= 8")
    pos = []
    for i in range(n):
        for j in range(n):
            if i != j:
                c = [0] * (n + 1)
                c[1 + i], c[1 + j] = 1, -1
                pos.append(tuple(c))
    for a, size in ((1, 3), (2, 6)):
        for idx in combinations(range(n), size):
            c = [0] * (n + 1)
            c[0] = a
            for i in idx:
                c[1 + i] = -1
            pos.append(tuple(c))
            pos.append(tuple(-v for v in c))
    if n == 8:
        for i in range(n):
            c = [3] + [-1] * n
            c[1 + i] = -2
            pos.append(tuple(c))
            pos.append(tuple(-v for v in c))
    return tuple(pos)


def reduce_rational(x):
    """Classify a rational class by its own Cremona reduction.

    Returns "exceptional" for the orbit of E_1, "knull" for the orbit of a
    binary or ternary root, and "other" otherwise.  Only square -1 or -2
    classes with the matching K_0-pairing can be either.
    """
    n = len(x) - 1
    sq = dot(RATIONAL, x, x)
    kp = dot(RATIONAL, k0(RATIONAL, 0, n), x)
    if (sq, kp) not in ((-1, -1), (-2, 0)):
        return "other"
    a, b = x[0], [-c for c in x[1:]]
    for _ in range(abs(a) + n + 4):
        if sq == -2 and a < 0:
            # roots come in pairs +-x; exceptional classes do not
            a, b = -a, [-v for v in b]
        b.sort(reverse=True)
        nonzero = sorted(v for v in b if v)
        if sq == -2 and abs(a) == 1 and nonzero == [a, a, a]:
            return "knull"
        if a == 0:
            # square and K_0-pairing leave only E_i, or E_i - E_j
            return "exceptional" if sq == -1 else "knull"
        if a < 0:
            return "other"
        d = a - sum(b[:3])
        if d >= 0 or n < 3:
            return "other"
        a += d
        for i in range(3):
            b[i] += d
    return "other"


def ruled_kind(x):
    """Exceptional and K_0-null classes of a ruled model, in closed form."""
    t, f = x[0], x[1]
    nonzero = sorted(v for v in x[2:] if v)
    if t != 0:
        return "other"
    if len(nonzero) == 1 and (f, nonzero[0]) in ((0, 1), (1, -1)):
        return "exceptional"
    if len(nonzero) == 2:
        if f == 0 and nonzero == [-1, 1]:
            return "knull"
        if abs(f) == 1 and nonzero == [-f, -f]:
            return "knull"
    return "other"


def names(kind, n):
    return (("H",) if kind == RATIONAL else ("T", "F")) + tuple(f"E{i}" for i in range(1, n + 1))


def format_class(kind, coeffs):
    """Text for a class or form, in the grammar latwist.parse_* accepts."""
    n = len(coeffs) - head(kind)
    parts = []
    for name, c in zip(names(kind, n), coeffs):
        if c == 0:
            continue
        mag = abs(Fraction(c))
        if mag == 1:
            body = name
        elif mag.denominator == 1:
            body = f"{mag.numerator}{name}"
        else:
            body = f"{mag.numerator}/{mag.denominator}*{name}"
        parts.append(("-" if c < 0 else "+") + body)
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[1:] if text.startswith("+") else text


_TERM = re.compile(r"\s*([+-])?\s*(\d+(?:/\d+)?)?\s*\*?\s*(H|T|F|E\d+)")


def parse_text(kind, n, text):
    """Parse printed class text back to a coefficient tuple."""
    if text.strip() == "0":
        return (0,) * (head(kind) + n)
    index = {name: i for i, name in enumerate(names(kind, n))}
    coeffs = [Fraction(0)] * len(index)
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m is None:
            raise ValueError(f"cannot read class text {text!r}")
        value = Fraction(m.group(2) or 1)
        coeffs[index[m.group(3)]] += -value if m.group(1) == "-" else value
        pos = m.end()
        if not text[pos:].strip():
            break
    return tuple(int(c) if c.denominator == 1 else c for c in coeffs)
