"""The four benchmark workloads: inputs, the timed operation, the answer check.

Each workload turns (seed, i) into the i-th input of an endless stream, so
one seed always gives the same inputs.  The strata (n, input type,
routine) cycle with i, and inside a stratum a rotated van der Corput
sequence spreads degree and word length evenly.  Every prefix of the
stream therefore has nearly the same mix, which keeps the spread between
runs low without repeating inputs.

Inputs reach the library only as text classes, text forms, coefficient
tuples and integer matrices.  ``run`` is the timed operation; ``check``
runs outside the timed region and compares the answer with the
independent arithmetic in ``ref`` and with how the input was built.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction

import ref

RATIONAL, RULED = ref.RATIONAL, ref.RULED
GOLDEN = 0.6180339887498949


def _vdc(k):
    """Base-2 radical inverse of k: a low-discrepancy sequence in [0, 1)."""
    out, scale = 0.0, 0.5
    while k:
        if k & 1:
            out += scale
        k >>= 1
        scale /= 2
    return out


def _rotation(name, seed, stratum, sequence):
    return random.Random(f"{name}:{seed}:{stratum}:{sequence}").random()


def _spread(name, seed, stratum, k):
    """k-th point of a van der Corput sequence rotated per (seed, stratum)."""
    return (_vdc(k) + _rotation(name, seed, stratum, "vdc")) % 1.0


def _share(name, seed, stratum, k, share):
    """Whether the k-th item of a stratum falls in a fixed share, evenly spaced."""
    return (k * GOLDEN + _rotation(name, seed, stratum, "golden")) % 1.0 < share


def _rng(name, seed, i):
    return random.Random(f"{name}:{seed}:{i}")


def _walk(kind, gens, x, steps, rng, cap=None):
    """Apply up to ``steps`` random twists; keep those within the degree cap.

    Returns the image and the generators kept, in matrix order.
    """
    kept = []
    for _ in range(steps):
        g = rng.choice(gens)
        y = ref.twist(kind, g, x)
        if cap is None or abs(y[0]) <= cap:
            x = y
            kept.append(g)
    return x, kept[::-1]


def negate(x):
    return tuple(-v for v in x)


def relabeled(kind, x, perm):
    """x with E_1..E_n relabeled: E-coefficient q of the result is perm[q] of x."""
    h = ref.head(kind)
    return tuple(x[:h]) + tuple(x[h + p] for p in perm)


def _perm(rng, n):
    return rng.sample(range(n), n)


class Classify:
    """One rational class query, as ``latwist classify`` answers it."""

    name = "classify"
    trace_ops = 300
    cli_share = 0.1
    strata = [(t, n) for t in ("exceptional", "root", "positive") for n in range(3, 13)]

    def make_input(self, seed, i):
        s, k = i % len(self.strata), i // len(self.strata)
        typ, n = self.strata[s]
        # The walk that shapes the i-th class is the same for every seed and
        # the seed only relabels E_1..E_n.  A relabeled class costs the same
        # to reduce, so runs with different seeds do the same work; with
        # independent walks the median latency moved by 9% between seeds.
        rng = _rng(self.name, "shape", i)
        # degree target 2^(7u^2) - 1 in 0..127: median 2, top 1% above 110
        target = int(2 ** (7 * _spread(self.name, "shape", s, k) ** 2)) - 1
        rank = n + 1
        expect = {"exceptional": typ == "exceptional", "knull": typ == "root"}
        if typ == "exceptional":
            base = ref.unit(rank, rng.randint(1, n))
            expect["kinds"] = ("ExceptionalEi",)
        elif typ == "root":
            base = rng.choice(ref.rational_generators(n))
            expect["kinds"] = ("Binary", "Ternary")
        else:
            # a reduced class of positive square: its orbit meets the
            # reduced chamber only here, so it is the expected normal form
            b = sorted((rng.randint(0, 3) for _ in range(n)), reverse=True)
            a = sum(b[:3]) + rng.randint(1, 3)
            while a * a <= sum(v * v for v in b):
                a += 1
            base = (a,) + tuple(-v for v in b)
            expect["kinds"] = ("Reduced",)
            expect["rep"] = base
        cap = max(target, abs(base[0]))
        x, word = _walk(RATIONAL, ref.rational_generators(n), base, 4 * target + rng.randint(0, 6), rng, cap)
        x = relabeled(RATIONAL, x, _perm(random.Random(f"{self.name}:{seed}:{i}"), n))
        return {
            "n": n,
            "type": typ,
            "coeffs": x,
            "text": ref.format_class(RATIONAL, x),
            "degree": abs(x[0]),
            "word_len": len(word),
            "cli": _share(self.name, "shape", s, k, self.cli_share),
            "expect": expect,
        }

    def warm_up(self, lw):
        for n in range(3, 13):
            for cli in (False, True):
                self.run(lw, {"n": n, "text": "E1", "cli": cli})

    def run(self, lw, inp):
        n, text = inp["n"], inp["text"]
        if inp["cli"]:
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = lw.cli.main(
                    ["classify", "--model", f"rational:{n}", "--output", "json", "--", text]
                )
            return "cli", code, buf.getvalue()
        model = lw.LatticeModel.rational(n)
        x = lw.parse_class(text, model)
        k0 = model.k0_form()
        exc = lw.is_exceptional(x, k0)
        knull = lw.is_K_null_spherical(x, k0)
        nf = lw.cremona_reduce(x)
        return "lib", exc, knull, nf, lw.print_class(nf.representative)

    def check(self, inp, out):
        n, x, expect = inp["n"], inp["coeffs"], inp["expect"]
        problems = []
        if out[0] == "cli":
            _, code, stdout = out
            data = json.loads(stdout)
            if code != 0:
                problems.append(f"cli exit code {code}")
            if ref.parse_text(RATIONAL, n, data["class"]) != x:
                problems.append("cli echoed another class")
            if data["square"] != ref.dot(RATIONAL, x, x):
                problems.append("wrong square")
            if data["k_pairing"] != ref.dot(RATIONAL, ref.k0(RATIONAL, 0, n), x):
                problems.append("wrong K-pairing")
            exc, knull, kind, flipped = (
                data["exceptional"], data["knull"], data["kind"], data["sign_flipped"]
            )
            rep = ref.parse_text(RATIONAL, n, data["normal_form"])
            word = [ref.parse_text(RATIONAL, n, t) for t in data["word"]["generators"]]
        else:
            _, exc, knull, nf, text = out
            kind, flipped = nf.kind, nf.sign_flipped
            rep = tuple(nf.representative.coeffs)
            word = [tuple(g.coeffs) for g in nf.word.generators]
            if ref.parse_text(RATIONAL, n, text) != rep:
                problems.append("printed normal form differs from the representative")
        if exc != expect["exceptional"]:
            problems.append(f"exceptional verdict {exc}, built as {inp['type']}")
        if knull != expect["knull"]:
            problems.append(f"K-null verdict {knull}, built as {inp['type']}")
        if kind not in expect["kinds"]:
            problems.append(f"normal form kind {kind}, built as {inp['type']}")
        if "rep" in expect and rep != expect["rep"]:
            problems.append("normal form differs from the reduced class the input was built from")
        if expect["exceptional"] and (flipped or rep[0] != 0 or sorted(v for v in rep if v) != [1]):
            problems.append("exceptional normal form is not +E_i")
        # replay the certificate one reflection at a time
        if ref.apply_word(RATIONAL, word, x) != (negate(rep) if flipped else rep):
            problems.append("reduction word does not carry the class to its normal form")
        return problems

    def profile(self, inp, out):
        return {
            "n": inp["n"],
            "degree": inp["degree"],
            "twist_word_len": inp["word_len"],
            "cli_entered": inp["cli"],
        }


class Cone:
    """One form: cone membership, then Lagrangian tests on a sample of roots."""

    name = "cone"
    trace_ops = 140
    # In-cone cost doubles with each n, so latencies form one cluster per
    # n, and the share must keep the median off the edge between two of
    # them: at 0.7 the out-of-cone forms and in-cone n=2,3 make exactly
    # half (0.3 + 0.7 * 2/7), and the median moved by 9% between runs.
    in_share = 2 / 3
    lagrangian_sample = 1
    strata = list(range(2, 9))

    def make_input(self, seed, i):
        s, k = i % len(self.strata), i // len(self.strata)
        n = self.strata[s]
        rng = _rng(self.name, seed, i)
        inside = _share(self.name, seed, s, k, self.in_share)
        # q and tied areas cycle through all 24 pairs, so that every run
        # has the same mix of them
        c = k + int(24 * _rotation(self.name, seed, s, "cycle"))
        # numerators over the denominator q, so that the walk and the
        # search for area-zero roots run on integers
        q = 1 + c % 12
        b = [rng.randint(1, 4 * q) for _ in range(n)]
        if (c // 12) % 2:
            # tied areas, so that some roots have area zero
            j = rng.randrange(n)
            b = [b[j] if rng.random() < 0.5 else v for v in b]
        b.sort(reverse=True)
        if inside:
            # reduced with a > b1 + b2 + b3: in the cone (Li-Li)
            a = sum(b[:3]) + rng.randint(1, 2 * q)
        else:
            # a <= b1 + b2: H - E1 - E2 has area <= 0
            a = rng.randint(1, b[0] + b[1])
        steps = int(21 * _spread(self.name, seed, s, k))
        scaled, word = _walk(RATIONAL, ref.rational_generators(n), (a,) + tuple(-v for v in b), steps, rng)
        tau = tuple(Fraction(v, q) for v in scaled)
        knull = []
        if inside:
            roots = ref.rational_roots(n)
            zero = [r for r in roots if ref.dot(RATIONAL, scaled, r) == 0]
            if zero:
                knull.append(rng.choice(zero))
            knull += rng.sample(roots, self.lagrangian_sample - len(knull))
        return {
            "n": n,
            "tau": tau,
            "text": ref.format_class(RATIONAL, tau),
            "knull": [ref.format_class(RATIONAL, x) for x in knull],
            "denominator": q,
            "word_len": len(word),
            "expect": {"in_cone": inside},
        }

    def warm_up(self, lw):
        for n in self.strata:
            lw.enumerate_exceptional(lw.LatticeModel.rational(n))

    def run(self, lw, inp):
        model = lw.LatticeModel.rational(inp["n"])
        tau = lw.parse_form(inp["text"], model)
        res = lw.in_cone(tau)
        lag = []
        if res:
            lag = [lw.is_lagrangian_spherical(lw.parse_class(t, model), tau) for t in inp["knull"]]
        return res, lag

    def check(self, inp, out):
        n, tau = inp["n"], inp["tau"]
        res, lag = out
        problems = []
        if bool(res) != inp["expect"]["in_cone"]:
            problems.append(f"cone verdict {res.verdict}, built {'inside' if inp['expect']['in_cone'] else 'outside'}")
        if not res:
            w = res.witness
            if w is None:
                if ref.dot(RATIONAL, tau, tau) > 0:
                    problems.append("No without a witness for a form of positive square")
            else:
                w = tuple(w.coeffs)
                # for n <= 8 every square -1, K-pairing -1 class is exceptional
                if ref.dot(RATIONAL, w, w) != -1 or ref.dot(RATIONAL, ref.k0(RATIONAL, 0, n), w) != -1:
                    problems.append("cone witness is not exceptional")
                if ref.dot(RATIONAL, tau, w) > 0:
                    problems.append("cone witness has positive area")
            return problems
        if len(lag) != len(inp["knull"]):
            problems.append("Lagrangian sample not answered")
        for text, r in zip(inp["knull"], lag):
            area = ref.dot(RATIONAL, tau, ref.parse_text(RATIONAL, n, text))
            if r.yes != (area == 0):
                problems.append(f"Lagrangian verdict {r.yes} for {text} with area {area}")
            if Fraction(r.area) != area:
                problems.append(f"Lagrangian area {r.area} for {text}, expected {area}")
        return problems

    def profile(self, inp, out):
        return {
            "n": inp["n"],
            "denominator": inp["denominator"],
            "twist_word_len": inp["word_len"],
            "in_cone": inp["expect"]["in_cone"],
        }


def _block_areas(n, top):
    """Descending areas in two tied blocks: ``top`` entries of 2, the rest 1."""
    return [2] * top + [1] * (n - top)


class Decompose:
    """One isometry built from a twist word: validate, then factor it."""

    name = "decompose"
    trace_ops = 114
    strata = (
        [("K", None, 0, n) for n in range(2, 13)]
        + [("K_alpha", a, 0, n) for n in range(3, 9) for a in ("minus_K", "blocks")]
        + [("ruled", "blocks", h, n) for h in range(1, 4) for n in range(2, 7)]
    )

    def make_input(self, seed, i):
        s, k = i % len(self.strata), i // len(self.strata)
        routine, alpha_kind, h, n = self.strata[s]
        rng = _rng(self.name, seed, i)
        kind = RULED if routine == "ruled" else RATIONAL
        rank = n + ref.head(kind)
        alpha = None
        if routine == "ruled":
            b = _block_areas(n, rng.randint(0, n))
            i1, i2 = rng.sample(range(n), 2)
            alpha = (b[i1] + b[i2], rng.randint(1, 4)) + tuple(-v for v in b)
            gens = ref.ruled_generators(n)
        else:
            gens = ref.rational_generators(n)
            if alpha_kind == "minus_K":
                alpha = negate(ref.k0(RATIONAL, 0, n))
            elif alpha_kind == "blocks":
                b = _block_areas(n, rng.randint(1, n))
                alpha = (sum(b[:3]),) + tuple(-v for v in b)
        if alpha is not None:
            gens = [g for g in gens if ref.dot(kind, alpha, g) == 0]
        length = int(31 * _spread(self.name, seed, s, k))
        word = [rng.choice(gens) for _ in range(length)]
        return {
            "routine": routine,
            "kind": kind,
            "genus": h,
            "n": n,
            "entries": ref.word_matrix(kind, rank, word),
            "alpha": alpha,
            "alpha_text": None if alpha is None else ref.format_class(kind, alpha),
            "word_len": length,
            "expect": {"valid": True},
        }

    def warm_up(self, lw):
        for n in range(3, 9):
            lw.enumerate_exceptional(lw.LatticeModel.rational(n))

    def run(self, lw, inp):
        n = inp["n"]
        if inp["kind"] == RULED:
            model = lw.LatticeModel.ruled(inp["genus"], n)
        else:
            model = lw.LatticeModel.rational(n)
        M = lw.IsometryMatrix(model, inp["entries"])
        alpha = None if inp["alpha_text"] is None else lw.parse_form(inp["alpha_text"], model)
        report = lw.validate(M, model.k0_form(), alpha)
        if inp["routine"] == "K":
            word = lw.decompose_K(M)
        elif inp["routine"] == "K_alpha":
            word = lw.decompose_K_alpha(M, alpha)
        else:
            word = lw.decompose_ruled(M, alpha)
        return report, word

    def check(self, inp, out):
        kind, n, alpha = inp["kind"], inp["n"], inp["alpha"]
        report, word = out
        problems = []
        if bool(report.ok) != inp["expect"]["valid"]:
            problems.append(f"validate says {report.failures} for an isometry built from twists")
        gens = [tuple(g.coeffs) for g in word.generators]
        canonical = ref.k0(kind, inp["genus"], n)
        for g in gens:
            if ref.dot(kind, g, g) != -2 or ref.dot(kind, canonical, g) != 0:
                problems.append("generator is not a K-null root")
                return problems
            if alpha is not None and ref.dot(kind, alpha, g) != 0:
                problems.append("generator with nonzero alpha-area")
        if ref.word_matrix(kind, n + ref.head(kind), gens) != inp["entries"]:
            problems.append("factorization does not reproduce the matrix")
        return problems

    def profile(self, inp, out):
        return {
            "n": inp["n"],
            "twist_word_len": inp["word_len"],
            "routine_K": inp["routine"] == "K",
            "routine_K_alpha": inp["routine"] == "K_alpha",
            "routine_ruled": inp["routine"] == "ruled",
        }


class Crosscheck:
    """One class from an enumerate_classes scan, decided by library and oracle."""

    name = "crosscheck"
    trace_ops = 700
    bound = 3
    scans = (
        [(RATIONAL, 0, n, p, None) for n in range(4, 9) for p in ("exceptional", "knull")]
        # at n=10 the default BFS depth 2n is infeasible on the classes
        # that have exceptional invariants but are not exceptional
        + [(RATIONAL, 0, 10, "exceptional", 8)]
        + [(RULED, h, n, p, None) for h in (1, 2) for n in (4, 5) for p in ("exceptional", "knull")]
    )
    # classes per stratum and pass; None keeps the whole scan
    sample = {RATIONAL: None, RULED: 50, "n10_yes": 200, "n10_no": None}

    def __init__(self):
        self.scanned = None
        self._pools = {}

    def _model(self, lw, kind, h, n):
        return lw.LatticeModel.ruled(h, n) if kind == RULED else lw.LatticeModel.rational(n)

    def scan(self, lw):
        return [
            [x.coeffs for x in lw.enumerate_classes(
                lw.EnumQuery(self._model(lw, kind, h, n), self.bound, predicate=p))]
            for kind, h, n, p, _ in self.scans
        ]

    def warm_up(self, lw):
        self.scanned = self.scan(lw)

    def _expected(self, kind, x):
        return ref.ruled_kind(x) if kind == RULED else ref.reduce_rational(x)

    def _pool(self, seed):
        if seed in self._pools:
            return self._pools[seed]
        rng = random.Random(f"{self.name}:{seed}:pool")
        strata = []
        for spec, classes in zip(self.scans, self.scanned):
            kind, n = spec[0], spec[2]
            items = [(spec, x, self._expected(kind, x)) for x in classes]
            if n == 10:
                no = [t for t in items if t[2] != spec[3]]
                parts = [
                    (self.sample["n10_yes"], [t for t in items if t[2] == spec[3]]),
                    # The 11 BFS-negative classes (full-depth searches of
                    # about 40 ms) are 0.8% of the pool once, so p99 sat on
                    # the top edge of the positives and moved by 12% between
                    # runs; twice over they are 1.6% and p99 falls among them.
                    (self.sample["n10_no"], no + no),
                ]
            else:
                parts = [(self.sample[kind], items)]
            for size, part in parts:
                if size is not None and len(part) > size:
                    part = rng.sample(part, size)
                else:
                    part = rng.sample(part, len(part))
                if part:
                    strata.append(part)
        # interleave the strata so that every prefix keeps their proportions
        keyed = []
        for part in strata:
            shift = rng.random()
            keyed += [((k + shift) / len(part), t) for k, t in enumerate(part)]
        keyed.sort(key=lambda kt: kt[0])
        pool = [t for _, t in keyed]
        self._pools[seed] = pool
        return pool

    def make_input(self, seed, i):
        pool = self._pool(seed)
        (kind, h, n, predicate, depth), x, expected = pool[i % len(pool)]
        return {
            "kind": kind,
            "genus": h,
            "n": n,
            "coeffs": x,
            "predicate": predicate,
            "depth": depth,
            "expect": {"exceptional": expected == "exceptional", "knull": expected == "knull"},
        }

    def run(self, lw, inp):
        model = self._model(lw, inp["kind"], inp["genus"], inp["n"])
        x = lw.HomClass(model, inp["coeffs"])
        k0 = model.k0_form()
        depth = inp["depth"]
        return (
            lw.is_exceptional(x, k0),
            lw.is_K_null_spherical(x, k0),
            lw.bfs_is_exceptional(x, depth=depth),
            lw.bfs_is_knull_spherical(x, depth=depth),
        )

    def check(self, inp, out):
        lib_exc, lib_knull, bfs_exc, bfs_knull = out
        expect = inp["expect"]
        problems = []
        if lib_exc != bfs_exc:
            problems.append(f"exceptional: library {lib_exc}, oracle {bfs_exc}")
        if lib_knull != bfs_knull:
            problems.append(f"K-null: library {lib_knull}, oracle {bfs_knull}")
        if lib_exc != expect["exceptional"]:
            problems.append(f"exceptional: library {lib_exc}, reduction by hand {expect['exceptional']}")
        if lib_knull != expect["knull"]:
            problems.append(f"K-null: library {lib_knull}, reduction by hand {expect['knull']}")
        return problems

    def profile(self, inp, out):
        row = {"n": inp["n"], "ruled": inp["kind"] == RULED}
        if out is not None:
            row["bfs_negative"] = not (out[2] if inp["predicate"] == "exceptional" else out[3])
        return row


WORKLOADS = {w.name: w for w in (Classify, Cone, Decompose, Crosscheck)}
