"""Command-line front end.

Every subcommand is declared once, in ``_COMMANDS``: its name, help text,
operands and handler, which ``build_parser`` reads.  A handler returns the
library's own result values under the report's keys, and one renderer,
``_text``, prints every one of them for both output forms.  Every subcommand
emits a report; ``--json`` switches from the human-readable lines to a single
JSON object::

    {"ok": bool, "command": string, "result": object|null, "error": string|null}

Exactly one of ``result``/``error`` is present (non-null).  Exit codes:
0 for a positive outcome, 1 for a mathematical "no/none" (a false verdict, an
unmet factorization hypothesis), 2 for operational errors (syntax, zero
denominators, values outside the ring or too large to build, bad flags).  A
malformed command line under ``--json`` also gets the JSON report, with
``command`` set to the subcommand token as typed; without ``--json``
argparse's usage text goes to stderr.

A command line is read on one of two paths.  A well-formed
``CMD [FLAG...] -- OPERAND...`` line, with CMD's own flags in full, is read
straight from ``_COMMANDS`` by ``_read_line``, into the Namespace that argparse
would give it, without an argparse pass.  Every other line (no ``--``, an
abbreviated flag, ``--help``, ``--version``, a leading flag or an unknown
word) takes one pass of the top-level parser.  So every help, usage and error
text is argparse's own.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import __version__
from .dress import DressElement, is_member, is_unit
from .errors import (
    CertificatePreconditionError,
    DressRingError,
    HypothesisNotMet,
    NotInDressRing,
    ShapeViolation,
)
from .idempotent import (
    Factorization,
    Mat2,
    factor_row_matrix,
    positivity_certificate,
    stable_range_witness,
    verify_factorization,
)
from .ideals import IdealGens, ideal_inverse, ideal_square, principal_generator
from .numberrings import SeriesBase, TruncLaurent, laurent_member, zs_gcd, zs_member
from .parsing import format_fraction, parse_matrix, parse_rational, parse_scalar
from .polynomials import Polynomial
from .realroots import is_gamma, is_gamma_plus, sign_at_roots

OK = 0
MATH_NO = 1
FAILURE = 2


def _poly_arg(text: str) -> Polynomial:
    rf = parse_scalar(text)
    if not rf.is_polynomial:
        raise ShapeViolation(f"expected a polynomial, got {rf}")
    return rf.num

def _element_arg(text: str) -> DressElement:
    return DressElement(parse_scalar(text))


def _matrix_arg(text: str) -> Mat2:
    return Mat2(*(DressElement(e) for e in parse_matrix(text).entries()))


def _text(value):
    """A report value as printed: a Fraction exactly, a tuple as a list,
    bool/int/str/None as they are, and any other library value by str."""
    if isinstance(value, Fraction):
        return format_fraction(value)
    if isinstance(value, tuple):
        return [_text(v) for v in value]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return str(value)


_JSON = json.JSONEncoder(default=_text)  # json.dumps(default=...) builds one per call


def _fields(obj, *names) -> dict:
    """The named fields of a result object, in order."""
    return {name: getattr(obj, name) for name in names}


# Each handler returns (exit_code, result), with the library's values as result values.

def _verdict(key: str, verdict: bool) -> tuple[int, dict]:
    return (OK if verdict else MATH_NO), {key: verdict}


def _cmd_principal(args) -> tuple[int, dict]:
    report = principal_generator(_element_arg(args.a), _element_arg(args.b))
    return (OK if report.principal else MATH_NO), _fields(
        report, "principal", "s", "M", "fprime", "gprime", "generator", "expansion")


def _cmd_inverse_ideal(args) -> tuple[int, dict]:
    inv = ideal_inverse(_element_arg(args.a), _element_arg(args.b))
    return OK, {"inverse_gens": inv.gens, "certificate": inv.certificate}


def _cmd_factor(args) -> tuple[int, dict]:
    mat = _matrix_arg(args.matrix)
    if not mat.has_zero_second_row():
        raise ShapeViolation("factor needs a matrix with zero second row")
    # factor_row_matrix verifies before returning and raises CertificateError
    # (exit 2) on failure, so a returned factorization is verified.
    fact = factor_row_matrix(mat.a, mat.b)
    return OK, {**_fields(fact, "target", "factors"), "verified": True,
                "count": len(fact.factors)}


def _cmd_verify(args) -> tuple[int, dict]:
    # Entries outside the ring are a verification failure, not a usage error:
    # factor_index is None at the target and i at factor i.
    matrices = []
    for i, text in enumerate([args.target, *args.factors], -1):
        try:
            matrices.append(_matrix_arg(text))
        except NotInDressRing:
            return MATH_NO, {"verified": False, "failure": "entry-not-in-ring",
                             "factor_index": None if i < 0 else i}
    report = verify_factorization(Factorization(matrices[0], tuple(matrices[1:])))
    return (OK if report.ok else MATH_NO), {"verified": report.ok,
                                            **_fields(report, "failure", "factor_index")}


def _cmd_certificate(args) -> tuple[int, dict]:
    x, y = _poly_arg(args.x), _poly_arg(args.y)
    cert = positivity_certificate(x, y) if args.part == "a" else positivity_certificate(y, x)
    return OK, {"part": args.part, **_fields(cert, "beta", "delta", "scale", "base")}


def _cmd_laurent_member(args) -> tuple[int, dict]:
    base = SeriesBase(args.base)
    if args.zero:
        if args.order is not None or args.coeffs is not None:
            raise ShapeViolation("laurent-member takes ORDER and COEFFS, or --zero, not both")
        series = TruncLaurent.zero(base)
    else:
        if args.order is None or args.coeffs is None:
            raise ShapeViolation("laurent-member needs ORDER and COEFFS, or --zero")
        order = parse_rational(args.order)
        if order.denominator != 1:
            raise ShapeViolation(f"ORDER must be an integer, got {format_fraction(order)}")
        # Each coefficient is read in place, so an error's offset counts in COEFFS.
        coeffs, start = [], 0
        for piece in args.coeffs.split(","):
            coeffs.append(parse_rational(args.coeffs, start, start + len(piece)))
            start += len(piece) + 1
        series = TruncLaurent.make(base, order.numerator, coeffs)
    return _verdict("member", laurent_member(series))


def _cmd_stable_witness(args) -> tuple[int, dict]:
    evidence = stable_range_witness(_element_arg(args.z))
    return OK, {**_fields(evidence, "sum_sq_unit", "value_at_1", "value_at_minus_1"),
                "signs": (evidence.sign_at_1, evidence.sign_at_minus_1),
                "nonunit_certified": evidence.nonunit_certified}


# (name, help, operands, handler), in the order of the help listing.  An
# operand is a name or a (name or --flag, argparse keywords) pair.
_COMMANDS = (
    ("member", "is the expression in the ring?", ["expr"],
     lambda args: _verdict("member", is_member(parse_scalar(args.expr)))),
    ("unit", "is the expression a unit of the ring?", ["expr"],
     lambda args: _verdict("unit", is_unit(parse_scalar(args.expr)))),
    ("gamma", "does the polynomial avoid all real roots?", ["expr"],
     lambda args: _verdict("gamma", is_gamma(_poly_arg(args.expr)))),
    ("gamma-plus", "is the polynomial everywhere positive?", ["expr"],
     lambda args: _verdict("gamma_plus", is_gamma_plus(_poly_arg(args.expr)))),
    ("sign-at-roots", "signs of q at the real roots of p", ["q", "p"],
     lambda args: (OK, {"pattern": sign_at_roots(_poly_arg(args.q), _poly_arg(args.p)).value})),
    ("principal", "is the ideal (a, b) principal? explicit generator", ["a", "b"],
     _cmd_principal),
    ("square-ideal", "principal generator of the ideal square", [("gens", {"nargs": "+"})],
     lambda args: (OK, {"generator": ideal_square(
         IdealGens(tuple(map(_element_arg, args.gens))))})),
    ("inverse-ideal", "fractional inverse of (a, b) with certificate", ["a", "b"],
     _cmd_inverse_ideal),
    ("factor", "factor [[p, q], [0, 0]] into idempotent matrices", ["matrix"], _cmd_factor),
    ("verify", "re-verify a factorization: TARGET FACTOR...",
     ["target", ("factors", {"nargs": "+"})], _cmd_verify),
    ("certificate", "positivity certificate for (x, y)",
     ["x", "y", ("--part", {"choices": ["a", "b"], "default": "a",
                            "help": "a: delta = x^2 + y*beta; b: delta = x*eta + y^2"})],
     _cmd_certificate),
    ("zs-member", "membership of a rational in Z_S", ["value"],
     lambda args: _verdict("member", zs_member(parse_rational(args.value)))),
    ("zs-gcd", "ideal gcd in Z_S with Bezout certificate", ["a", "b"],
     lambda args: (OK, dict(zip("guv", zs_gcd(parse_rational(args.a),
                                               parse_rational(args.b)))))),
    ("laurent-member", "membership of a truncated Laurent series",
     [("base", {"choices": [b.value for b in SeriesBase]}),
      ("order", {"nargs": "?", "help": "the lowest exponent, an integer"}),
      ("coeffs", {"nargs": "?", "help": "comma-separated rationals, lowest exponent first"}),
      ("--zero", {"action": "store_true", "help": "the exact zero series"})],
     _cmd_laurent_member),
    ("stable-witness", "square-stable-range witness at z", ["z"], _cmd_stable_witness),
)


# Every subcommand's first operand.
_JSON_FLAG = ("--json", {"action": "store_true", "help": "emit a JSON report"})


class UsageError(Exception):
    """Malformed command line: unknown flag, missing operand or bad choice.

    ``parser`` is the (sub)parser that rejected the line, ``message`` the
    argparse text.
    """

    def __init__(self, parser: argparse.ArgumentParser, message: str):
        self.parser = parser
        self.message = message
        super().__init__(message)


class _Parser(argparse.ArgumentParser):
    """Reads a token with one leading minus as an operand unless it names an option.

    Every option of this CLI is a long ``--name`` flag or ``-h``, so tokens
    such as ``-X/(X^2+1)`` or ``-1-X^2`` are operands, not unknown flags.
    Errors raise UsageError instead of exiting, so main can report them.
    """

    def _parse_optional(self, arg_string):
        if (arg_string.startswith("-") and not arg_string.startswith("--")
                and arg_string not in self._option_string_actions):
            return None
        return super()._parse_optional(arg_string)

    def error(self, message):
        raise UsageError(self, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dressring",
        description="Exact computations in the minimal Dress ring of R(X) over Q.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, operands, handler in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for operand in (_JSON_FLAG, *operands):
            operand, keywords = (operand, {}) if isinstance(operand, str) else operand
            p.add_argument(operand, **keywords)
        p.set_defaults(handler=handler)
    # name -> subcommand parser, so main can report a usage error as that subcommand's
    parser.commands = sub.choices
    return parser


def _emit(command: str, code: int, result, error, as_json: bool) -> int:
    """Print the report on stdout and return its exit code.  Every result value
    prints through _text, which json calls on each value it cannot encode (a
    tuple and bool/int/str/None it encodes as _text would)."""
    if as_json:
        print(_JSON.encode({"ok": code == OK, "command": command, "result": result,
                            "error": error}))
    elif error is not None:
        print(f"error: {error}")
    else:
        for key, value in result.items():
            print(f"{key}: {_text(value)}")
    return code


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of main and reused afterwards."""
    return build_parser()


@functools.cache
def _line_specs() -> dict:
    """name -> (defaults, options, operands) of each subcommand, read from
    _COMMANDS as build_parser reads it.  ``defaults`` holds every dest with the
    value argparse gives it when the line leaves it out, the command's name
    and the handler; ``options`` maps each flag to (dest, choices), where
    choices None means store_true; ``operands`` lists (dest, nargs, choices)
    in order."""
    specs = {}
    for name, _, operands, handler in _COMMANDS:
        defaults, options, positionals = {"command": name, "handler": handler}, {}, []
        for operand in (_JSON_FLAG, *operands):
            operand, keywords = (operand, {}) if isinstance(operand, str) else operand
            choices = keywords.get("choices")
            if operand.startswith("--"):
                dest = operand[2:].replace("-", "_")
                options[operand] = (dest, choices)
                defaults[dest] = keywords.get("default", False if choices is None else None)
            else:
                positionals.append((operand, keywords.get("nargs"), choices))
                defaults[operand] = None
        specs[name] = (defaults, options, positionals)
    return specs


def _read_line(argv: list[str]) -> argparse.Namespace | None:
    """The Namespace argparse gives ``CMD [FLAG...] -- OPERAND...``, or None.

    Every flag must be one of CMD's own, spelled in full, and every operand
    count and choice must fit.  Any other line (no ``--`` or a second one, an
    abbreviation, ``-h``, ``--part=b``, a flag among the operands) is None and
    goes to argparse, so every usage and help text stays argparse's.
    """
    spec = _line_specs().get(argv[0]) if argv else None
    if spec is None or "--" not in argv:
        return None
    defaults, options, operands = spec
    cut = argv.index("--")
    values = argv[cut + 1:]
    if "--" in values:
        return None
    args = dict(defaults)
    flags = iter(argv[1:cut])
    for flag in flags:
        if flag not in options:
            return None
        dest, choices = options[flag]
        if choices is None:
            args[dest] = True
        else:
            args[dest] = next(flags, None)
            if args[dest] not in choices:
                return None
    # As argparse's pattern match: '+' and '?' take all they can and leave
    # one operand for each required one after them.
    need, start = sum(nargs != "?" for _, nargs, _ in operands), 0
    for dest, nargs, choices in operands:
        need -= nargs != "?"
        spare = len(values) - start - need
        count = spare if nargs == "+" else min(spare, 1)
        taken = values[start:start + count]
        if count < (nargs != "?") or (choices is not None
                                      and any(v not in choices for v in taken)):
            return None
        if count:
            args[dest] = taken if nargs == "+" else taken[0]
        start += count
    return argparse.Namespace(**args) if start == len(values) else None


def _wants_json(argv: list[str]) -> bool:
    """True when --json, or an abbreviation of it from --j on, appears before
    any ``--`` operand separator; argparse reads every one of them as --json."""
    if "--" in argv:
        argv = argv[:argv.index("--")]
    return any(len(a) > 2 and "--json".startswith(a) for a in argv)


def _command_token(argv: list[str]) -> str:
    """The subcommand as typed: the first token that is not a flag."""
    return next((a for a in argv if not a.startswith("-")), "")


def main(argv=None) -> int:
    """Run one command line and return its exit code.

    A well-formed ``CMD [FLAG...] -- OPERAND...`` line is read by _read_line
    without argparse.  Every other line takes one pass of the top-level
    parser, so every help, usage and error text is argparse's own; a second
    ``--`` is the subcommand's usage error.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_line(argv)
    try:
        if args is None:
            parser = _parser()
            args = parser.parse_args(argv)
            # Older argparse drops a second "--" and may hand an operand an
            # empty list (a crash in the handler); newer argparse reads it as an
            # operand.  Either way it is a usage error.
            if argv.count("--") > 1:
                parser.commands[args.command].error("the separator -- may appear only once")
    except UsageError as exc:
        if _wants_json(argv):
            return _emit(_command_token(argv), FAILURE, None, exc.message, True)
        # argparse's own report: usage and message on stderr.
        exc.parser.print_usage(sys.stderr)
        print(f"{exc.parser.prog}: error: {exc.message}", file=sys.stderr)
        return FAILURE
    except SystemExit as exc:
        # --help and --version print and exit with 0.
        return int(exc.code or 0)
    result = error = None
    try:
        code, result = args.handler(args)
    except (HypothesisNotMet, CertificatePreconditionError) as exc:
        code, error = MATH_NO, str(exc)
    except (DressRingError, ValueError) as exc:
        code, error = FAILURE, str(exc)
    except RecursionError:
        code, error = FAILURE, "expression too deeply nested"
    except (OverflowError, MemoryError):
        code, error = FAILURE, "value too large to build"
    return _emit(args.command, code, result, error, args.json)


if __name__ == "__main__":
    sys.exit(main())
