"""Command-line front end.

Every library decision is exposed as a subcommand.  Each handler
returns an exit code and a JSON payload; ``--output json`` prints the
payload with sorted keys, and the text output is derived from it by one
renderer that walks the payload in insertion order:

- a verdict key (``yes``, or cone's ``verdict``) prints as ``Yes``/``No``;
- a word ``{"length", "generators"}`` prints as ``word length: N``, then
  one ``  R(g)`` line per generator;
- any other object is flattened into its parent;
- a list prints ``key: len``, then one indented line per item; an
  object item shows its scalar fields as ``k=v``, and an item with
  nothing to show prints no line;
- ``null`` is left out;
- any other scalar prints as ``key: value``.

Arguments are parsed in one argparse pass: a first argument that names
a subcommand goes, with the rest, to that subcommand's parser, and
everything else goes to the top parser.

Exit codes: 0 for Yes/ok; 1 for No (a cone violation, a failed
validation, a crosscheck disagreement) or an unfactorable matrix; 2 for
input errors, which include a precondition that well-formed input
violates, such as a lagrangian --form, or a rational decompose
--alpha, outside the symplectic cone (error type ``input``).
"""

import argparse
import functools
import json
import re
import sys
from gettext import gettext

# classify and reduce need these three layers only; every other handler
# imports its own, so a call loads only the modules it reaches
from .classexpr import ParseError, parse_class, parse_form, print_class
from .lattice import RATIONAL, RULED, LatticeModel, _gram_product, is_characteristic
from .reduction import cremona_reduce, is_K_null_spherical, is_exceptional


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _integer(text: str) -> int:
    """An integer option: an optional sign and ASCII digits only.  int()
    alone would also read "1_0", surrounding spaces and other scripts'
    digits."""
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def parse_model_spec(text: str) -> LatticeModel:
    """Parse "rational:6" or "ruled:h=2,n=3"."""
    kind, sep, rest = text.partition(":")
    try:
        if kind == "rational" and sep:
            return LatticeModel.rational(_integer(rest))
        if kind == "ruled" and sep:
            items = [item.split("=", 1) for item in rest.split(",")]
            parts = dict(items)
            # dict() keeps the last of a repeated key, so count the items
            if len(items) != 2 or set(parts) != {"h", "n"}:
                raise ValueError
            return LatticeModel.ruled(_integer(parts["h"]), _integer(parts["n"]))
    except (ValueError, TypeError, argparse.ArgumentTypeError) as exc:
        raise argparse.ArgumentTypeError(f"bad model spec {text!r}") from exc
    raise argparse.ArgumentTypeError(f"bad model spec {text!r}")


def _positive(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _word_payload(word) -> dict:
    # a word repeats its generators (each Γ step is H - E1 - E2 - E3), so
    # each distinct one is printed once; the word holds them, so their ids
    # stay distinct while it is read
    text = {}
    for g in word.generators:
        if id(g) not in text:
            text[id(g)] = print_class(g)
    return {
        "length": len(word),
        "generators": [text[id(g)] for g in word.generators],
    }


def cmd_classify(args) -> tuple:
    model = args.model
    x = parse_class(args.cls, model)
    k0 = model.k0_form()
    payload = {
        "class": print_class(x),
        "square": x.square(),
        # K_0 has denominator 1, so its pairing is the integer product
        # with its numerators, the value the predicates' gate reads
        "k_pairing": _gram_product(model, k0.num, x.coeffs),
        "characteristic": is_characteristic(x),
        "exceptional": is_exceptional(x, k0),
        "knull": is_K_null_spherical(x, k0),
    }
    if model.kind == RATIONAL:
        nf = cremona_reduce(x)
        payload["normal_form"] = print_class(nf.representative)
        payload["kind"] = nf.kind
        payload["sign_flipped"] = nf.sign_flipped
        payload["word"] = _word_payload(nf.word)
    return 0, payload


def cmd_lagrangian(args) -> tuple:
    from .cone import is_lagrangian_spherical

    model = args.model
    x = parse_class(args.cls, model)
    tau = parse_form(args.form, model)
    res = is_lagrangian_spherical(x, tau)
    fields = {
        "yes": res.yes,
        "reason": res.reason,
        "area": str(res.area),
        "characteristic": res.characteristic,
        "kind": res.kind,
        "word": None if res.word is None else _word_payload(res.word),
    }
    # a Yes has no reason, a No no certificate: unset fields are omitted
    return (0 if res.yes else 1), {k: v for k, v in fields.items() if v is not None}


def cmd_reduce(args) -> tuple:
    model = args.model
    x = parse_class(args.cls, model)
    nf = cremona_reduce(x)
    return 0, {
        "kind": nf.kind,
        "representative": print_class(nf.representative),
        "sign_flipped": nf.sign_flipped,
        "word": _word_payload(nf.word),
    }


def cmd_decompose(args) -> tuple:
    from .decompose import decompose_K, decompose_K_alpha, decompose_ruled, matrix_from_json, validate

    model = args.model
    with open(args.matrix) as fh:
        M = matrix_from_json(json.load(fh))
    if M.model != model:
        raise ValueError("matrix file model does not match --model")
    alpha = parse_form(args.alpha, model) if args.alpha else None
    if model.kind == RULED and alpha is None:
        raise ValueError("ruled decomposition requires --alpha")
    report = validate(M, model.k0_form(), alpha)
    if not report.ok:
        return 1, {"valid": False, "failures": list(report.failures)}
    if model.kind == RULED:
        word = decompose_ruled(M, alpha)
    elif alpha is not None:
        word = decompose_K_alpha(M, alpha)
    else:
        word = decompose_K(M)
    return 0, {"valid": True, "word": _word_payload(word)}


def _query(args):
    from .oracle import EnumQuery

    return EnumQuery(
        args.model,
        args.bound,
        square=args.square,
        k_pairing=args.k_pairing,
        predicate=args.kind,
    )


def cmd_enumerate(args) -> tuple:
    model = args.model
    if args.bound is not None and args.degree_bound is not None:
        raise ValueError("--degree-bound cannot be combined with --bound")
    if args.kind == "exceptional" and args.bound is None:
        from .cone import enumerate_exceptional
        from .oracle import _resolve_predicate

        # the listing holds exactly the classes of square -1 and K-pairing
        # -1, so a conflicting constraint is refused as the scan's query is
        _resolve_predicate(args.kind, args.square, args.k_pairing)

        es = enumerate_exceptional(model, degree_bound=args.degree_bound, allow_large=args.allow_large)
        classes = list(es)
        payload = {"count": len(classes), "complete": es.complete}
        if es.degree_bound is not None:
            payload["degree_bound"] = es.degree_bound
    else:
        if args.bound is None:
            raise ValueError("--bound required unless --kind exceptional")
        from .oracle import enumerate_classes

        classes = enumerate_classes(_query(args), allow_large=args.allow_large)
        payload = {"count": len(classes), "complete": False, "coeff_bound": args.bound}
    payload["classes"] = [print_class(x) for x in classes]
    return 0, payload


def cmd_cone(args) -> tuple:
    from .cone import in_cone

    model = args.model
    tau = parse_form(args.form, model)
    res = in_cone(tau)
    no = not res
    payload = {"verdict": res.verdict}
    if no:
        payload["witness"] = None if res.witness is None else print_class(res.witness)
    if res.note:
        payload["note"] = res.note
    return int(no), payload


def cmd_crosscheck(args) -> tuple:
    from .oracle import crosscheck

    report = crosscheck(
        _query(args),
        allow_large=args.allow_large,
        depth=args.depth,
        sample=args.sample,
        seed=args.seed,
    )
    payload = report.to_json()
    if args.sample is not None:
        payload["sample"] = args.sample
        if args.seed is not None:
            payload["seed"] = args.seed
    return (0 if report.ok else 1), payload


class _UsageError(Exception):
    def __init__(self, parser, message):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors reach main instead of exiting.

    main reports them as JSON under --output json and otherwise hands
    them back to argparse's own error, which prints usage and exits 2.
    """

    def error(self, message):
        raise _UsageError(self, message)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", type=parse_model_spec, required=True,
                        help='lattice model, "rational:6" or "ruled:h=2,n=3"')
    common.add_argument("--output", choices=("text", "json"), default="text")
    allow_large_help = "lift the scan limits: --bound above 8, and more than 2,000,000 candidates"
    # the constraints of an enumerate or crosscheck scan
    scan = argparse.ArgumentParser(add_help=False)
    scan.add_argument("--kind", choices=("exceptional", "knull", "characteristic"), default=None)
    scan.add_argument("--square", type=_integer, default=None)
    scan.add_argument("--k-pairing", type=_integer, default=None)

    parser = _Parser(
        prog="latwist",
        description="exact homology-lattice decisions for blown-up rational and ruled surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand's parser by name, for main's one-pass parse
    parser.commands = sub.choices

    p = sub.add_parser("classify", parents=[common],
                       help="square, pairings, and normal form of a class")
    p.add_argument("cls", metavar="CLASS")
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("lagrangian", parents=[common],
                       help="Lagrangian sphere test for a class against a form")
    p.add_argument("cls", metavar="CLASS")
    p.add_argument("--form", required=True)
    p.set_defaults(handler=cmd_lagrangian)

    p = sub.add_parser("reduce", parents=[common],
                       help="Cremona reduction with certificate word")
    p.add_argument("cls", metavar="CLASS")
    p.set_defaults(handler=cmd_reduce)

    p = sub.add_parser("decompose", parents=[common],
                       help="factor an isometry matrix into twist generators")
    p.add_argument("--matrix", required=True, help="JSON matrix file")
    p.add_argument("--alpha", default=None, help="area form for the constrained variants")
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser("enumerate", parents=[common, scan],
                       help="enumerate classes: complete exceptional sets or bounded scans")
    p.add_argument("--bound", type=_positive, default=None)
    p.add_argument("--degree-bound", type=_positive, default=None,
                   help="cap on the H-coefficient of a rational exceptional set; "
                        "required for n >= 9, not with --bound")
    p.add_argument("--allow-large", action="store_true", help=allow_large_help)
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("cone", parents=[common],
                       help="symplectic cone membership of a form")
    p.add_argument("--form", required=True)
    p.set_defaults(handler=cmd_cone)

    p = sub.add_parser("crosscheck", parents=[common, scan],
                       help="compare library classifications against brute-force oracles")
    p.add_argument("--bound", type=_positive, required=True)
    p.add_argument("--depth", type=_positive, default=None,
                   help="orbit search depth, by default 2n; required for rational n >= 9")
    p.add_argument("--sample", type=_positive, default=None)
    p.add_argument("--seed", type=_integer, default=None,
                   help="seed for the --sample subset, echoed with --sample")
    p.add_argument("--allow-large", action="store_true", help=allow_large_help)
    p.set_defaults(handler=cmd_crosscheck)

    return parser


def _text_lines(payload: dict) -> list:
    """The text form of a payload, by the rules in the module docstring."""
    lines = []
    for key, value in payload.items():
        if value is None:
            continue
        if key in ("yes", "verdict"):
            # a "yes" bool, or cone's verdict string cone.CONE_YES
            lines.append("Yes" if value in (True, "yes") else "No")
        elif isinstance(value, dict) and value.keys() == {"length", "generators"}:
            lines.append(f"word length: {value['length']}")
            lines += [f"  R({g})" for g in value["generators"]]
        elif isinstance(value, dict):
            lines += _text_lines(value)
        elif isinstance(value, list):
            lines.append(f"{key}: {len(value)}")
            for item in value:
                if isinstance(item, dict):
                    item = " ".join(f"{k}={v}" for k, v in item.items()
                                    if v is not None and not isinstance(v, (dict, list)))
                if item != "":
                    lines.append(f"  {item}")
        else:
            lines.append(f"{key}: {value}")
    return lines


def _emit(payload, output):
    # one write: json.dump would write each of its many chunks alone
    if output == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = "".join(line + "\n" for line in _text_lines(payload))
    sys.stdout.write(text)


def _wants_json(argv) -> bool:
    """Whether argv asks for JSON output, read by argparse's own rules.

    A parser that knows only --output follows the same abbreviations,
    "=" form, repeats and "--" as the full one.
    """
    pre = _Parser(add_help=False)
    pre.add_argument("--output")
    try:
        return pre.parse_known_args(argv)[0].output == "json"
    except _UsageError:
        return False


def _parse_args(argv) -> argparse.Namespace:
    """build_parser().parse_args(argv) in one pass: the top parser hands
    everything after a subcommand's name to that subcommand's parser and
    refuses what it leaves over, so the same namespace and errors come
    from the subcommand's parser alone."""
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        # argparse's own message, through the same translation
        parser.error(gettext("unrecognized arguments: %s") % " ".join(extras))
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_args(argv)
    except _UsageError as exc:
        if not _wants_json(argv):
            argparse.ArgumentParser.error(exc.parser, str(exc))
        _emit_error("json", "usage", exc)
        return 2
    try:
        code, payload = args.handler(args)
    except ParseError as exc:
        _emit_error(args.output, "parse", exc)
        return 2
    except (ValueError, TypeError, KeyError, OSError, json.JSONDecodeError) as exc:
        _emit_error(args.output, "input", exc)
        return 2
    except _decomposition_error() as exc:
        _emit_error(args.output, "decomposition", exc)
        return 1
    _emit(payload, args.output)
    return code


def _decomposition_error():
    # Python evaluates an except clause's class only when an exception
    # reaches that clause, so a call that raises nothing, or raises an
    # input error, never loads decompose for it
    from .decompose import DecompositionError

    return DecompositionError


def _emit_error(output, kind, exc):
    if output == "json":
        _emit({"error": {"type": kind, "message": str(exc)}}, "json")
    else:
        sys.stderr.write(f"error ({kind}): {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
