"""Command-line front end.

Every subcommand emits a report; ``--json`` switches from the human-readable
lines to a single JSON object::

    {"ok": bool, "command": string, "result": object|null, "error": string|null}

Exactly one of ``result``/``error`` is present (non-null).  Exit codes:
0 for a positive outcome, 1 for a mathematical "no/none" (a false verdict, an
unmet factorization hypothesis), 2 for operational errors (syntax, zero
denominators, values outside the ring or too large to build, bad flags).  A
malformed command line under ``--json`` also gets the JSON report, with
``command`` set to the subcommand token as typed; without ``--json``
argparse's usage text goes to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from typing import Optional

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
from .parsing import (
    ParsedMatrix,
    format_fraction,
    format_matrix,
    format_rational_function,
    parse_matrix,
    parse_rational,
    parse_scalar,
)
from .polynomials import Polynomial
from .realroots import is_gamma, is_gamma_plus, sign_at_roots

OK = 0
MATH_NO = 1
FAILURE = 2


@dataclass
class Report:
    ok: bool
    command: str
    result: Optional[dict]
    error: Optional[str]

    def to_dict(self) -> dict:
        return {"ok": self.ok, "command": self.command, "result": self.result,
                "error": self.error}


def _poly_arg(text: str) -> Polynomial:
    rf = parse_scalar(text)
    if not rf.is_polynomial:
        raise ShapeViolation(f"expected a polynomial, got {format_rational_function(rf)}")
    return rf.num

def _element_arg(text: str) -> DressElement:
    return DressElement(parse_scalar(text))


def _row_matrix_arg(text: str) -> tuple[DressElement, DressElement, Mat2]:
    parsed = parse_matrix(text)
    mat = _wrap_matrix(parsed)
    if not mat.has_zero_second_row():
        raise ShapeViolation("factor needs a matrix with zero second row")
    return mat.a, mat.b, mat


def _wrap_matrix(parsed: ParsedMatrix) -> Mat2:
    return Mat2(*(DressElement(e) for e in parsed.entries()))


# Each handler returns (exit_code, result_payload).

def _cmd_member(args) -> tuple[int, dict]:
    verdict = is_member(parse_scalar(args.expr))
    return (OK if verdict else MATH_NO), {"member": verdict}


def _cmd_unit(args) -> tuple[int, dict]:
    verdict = is_unit(parse_scalar(args.expr))
    return (OK if verdict else MATH_NO), {"unit": verdict}


def _cmd_gamma(args) -> tuple[int, dict]:
    verdict = is_gamma(_poly_arg(args.expr))
    return (OK if verdict else MATH_NO), {"gamma": verdict}


def _cmd_gamma_plus(args) -> tuple[int, dict]:
    verdict = is_gamma_plus(_poly_arg(args.expr))
    return (OK if verdict else MATH_NO), {"gamma_plus": verdict}


def _cmd_sign_at_roots(args) -> tuple[int, dict]:
    pattern = sign_at_roots(_poly_arg(args.q), _poly_arg(args.p))
    return OK, {"pattern": pattern.value}


def _cmd_principal(args) -> tuple[int, dict]:
    a, b = _element_arg(args.a), _element_arg(args.b)
    report = principal_generator(a, b)
    result = {
        "principal": report.principal,
        "s": report.s,
        "M": str(report.M),
        "fprime": str(report.fprime),
        "gprime": str(report.gprime),
        "generator": str(report.generator) if report.generator is not None else None,
        "expansion": [str(c) for c in report.expansion] if report.expansion else None,
    }
    return (OK if report.principal else MATH_NO), result


def _cmd_square_ideal(args) -> tuple[int, dict]:
    gens = IdealGens(tuple(_element_arg(e) for e in args.gens))
    s = ideal_square(gens)
    return OK, {"generator": str(s)}


def _cmd_inverse_ideal(args) -> tuple[int, dict]:
    inv = ideal_inverse(_element_arg(args.a), _element_arg(args.b))
    return OK, {
        "inverse_gens": [format_rational_function(g) for g in inv.gens],
        "certificate": str(inv.certificate),
    }


def _factor_result(fact: Factorization) -> dict:
    # factor_row_matrix verifies before returning and raises CertificateError
    # (exit 2) on failure, so a returned factorization is verified.
    return {
        "target": format_matrix(fact.target),
        "factors": [format_matrix(m) for m in fact.factors],
        "verified": True,
        "count": len(fact.factors),
    }


def _cmd_factor(args) -> tuple[int, dict]:
    p, q, _ = _row_matrix_arg(args.matrix)
    fact = factor_row_matrix(p, q)
    return OK, _factor_result(fact)


def _cmd_verify(args) -> tuple[int, dict]:
    # Entries outside the ring are a verification failure, not a usage error.
    try:
        target = _wrap_matrix(parse_matrix(args.target))
    except NotInDressRing:
        return MATH_NO, {"verified": False, "failure": "entry-not-in-ring",
                         "factor_index": None}
    factors = []
    for i, text in enumerate(args.factors):
        try:
            factors.append(_wrap_matrix(parse_matrix(text)))
        except NotInDressRing:
            return MATH_NO, {"verified": False, "failure": "entry-not-in-ring",
                             "factor_index": i}
    report = verify_factorization(Factorization(target, tuple(factors)))
    result = {
        "verified": report.ok,
        "failure": report.failure,
        "factor_index": report.factor_index,
    }
    return (OK if report.ok else MATH_NO), result


def _cmd_certificate(args) -> tuple[int, dict]:
    x, y = _poly_arg(args.x), _poly_arg(args.y)
    cert = positivity_certificate(x, y) if args.part == "a" else positivity_certificate(y, x)
    return OK, {
        "part": args.part,
        "beta": str(cert.beta),
        "delta": str(cert.delta),
        "scale": format_fraction(cert.scale),
        "base": str(cert.base),
    }


def _cmd_zs_member(args) -> tuple[int, dict]:
    verdict = zs_member(parse_rational(args.value))
    return (OK if verdict else MATH_NO), {"member": verdict}


def _cmd_zs_gcd(args) -> tuple[int, dict]:
    g, u, v = zs_gcd(parse_rational(args.a), parse_rational(args.b))
    return OK, {"g": format_fraction(g), "u": format_fraction(u), "v": format_fraction(v)}


def _cmd_laurent_member(args) -> tuple[int, dict]:
    base = SeriesBase(args.base)
    if args.zero:
        series = TruncLaurent.zero(base)
    else:
        if args.order is None or args.coeffs is None:
            raise ShapeViolation("laurent-member needs ORDER and COEFFS, or --zero")
        order = parse_rational(args.order)
        if order.denominator != 1:
            raise ShapeViolation(f"ORDER must be an integer, got {format_fraction(order)}")
        coeffs = [parse_rational(c) for c in args.coeffs.split(",")]
        series = TruncLaurent.make(base, order.numerator, coeffs)
    verdict = laurent_member(series)
    return (OK if verdict else MATH_NO), {"member": verdict}


def _cmd_stable_witness(args) -> tuple[int, dict]:
    evidence = stable_range_witness(_element_arg(args.z))
    return OK, {
        "sum_sq_unit": evidence.sum_sq_unit,
        "value_at_1": format_fraction(evidence.value_at_1),
        "value_at_minus_1": format_fraction(evidence.value_at_minus_1),
        "signs": [evidence.sign_at_1, evidence.sign_at_minus_1],
        "nonunit_certified": evidence.nonunit_certified,
    }


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

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.set_defaults(handler=handler)
        return p

    p = add("member", _cmd_member, "is the expression in the ring?")
    p.add_argument("expr")
    p = add("unit", _cmd_unit, "is the expression a unit of the ring?")
    p.add_argument("expr")
    p = add("gamma", _cmd_gamma, "does the polynomial avoid all real roots?")
    p.add_argument("expr")
    p = add("gamma-plus", _cmd_gamma_plus, "is the polynomial everywhere positive?")
    p.add_argument("expr")
    p = add("sign-at-roots", _cmd_sign_at_roots, "signs of q at the real roots of p")
    p.add_argument("q")
    p.add_argument("p")
    p = add("principal", _cmd_principal, "is the ideal (a, b) principal? explicit generator")
    p.add_argument("a")
    p.add_argument("b")
    p = add("square-ideal", _cmd_square_ideal, "principal generator of the ideal square")
    p.add_argument("gens", nargs="+")
    p = add("inverse-ideal", _cmd_inverse_ideal, "fractional inverse of (a, b) with certificate")
    p.add_argument("a")
    p.add_argument("b")
    p = add("factor", _cmd_factor, "factor [[p, q], [0, 0]] into idempotent matrices")
    p.add_argument("matrix")
    p = add("verify", _cmd_verify, "re-verify a factorization: TARGET FACTOR...")
    p.add_argument("target")
    p.add_argument("factors", nargs="+")
    p = add("certificate", _cmd_certificate, "positivity certificate for (x, y)")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--part", choices=["a", "b"], default="a",
                   help="a: delta = x^2 + y*beta; b: delta = x*eta + y^2")
    p = add("zs-member", _cmd_zs_member, "membership of a rational in Z_S")
    p.add_argument("value")
    p = add("zs-gcd", _cmd_zs_gcd, "ideal gcd in Z_S with Bezout certificate")
    p.add_argument("a")
    p.add_argument("b")
    p = add("laurent-member", _cmd_laurent_member, "membership of a truncated Laurent series")
    p.add_argument("base", choices=[b.value for b in SeriesBase])
    p.add_argument("order", nargs="?", default=None, help="the lowest exponent, an integer")
    p.add_argument("coeffs", nargs="?", default=None,
                   help="comma-separated rationals, lowest exponent first")
    p.add_argument("--zero", action="store_true", help="the exact zero series")
    p = add("stable-witness", _cmd_stable_witness, "square-stable-range witness at z")
    p.add_argument("z")
    return parser


def _emit(report: Report, as_json: bool, stream) -> None:
    if as_json:
        print(json.dumps(report.to_dict()), file=stream)
        return
    if report.error is not None:
        print(f"error: {report.error}", file=stream)
        return
    for key, value in report.result.items():
        print(f"{key}: {value}", file=stream)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of main and reused afterwards."""
    return build_parser()


def _wants_json(argv: list[str]) -> bool:
    """True when --json appears before any ``--`` operand separator."""
    if "--" in argv:
        argv = argv[:argv.index("--")]
    return "--json" in argv


def _command_token(argv: list[str]) -> str:
    """The subcommand as typed: the first token that is not a flag."""
    return next((a for a in argv if not a.startswith("-")), "")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser().parse_args(argv)
    except UsageError as exc:
        if _wants_json(argv):
            _emit(Report(ok=False, command=_command_token(argv), result=None,
                         error=exc.message), True, sys.stdout)
            return FAILURE
        # argparse's own report: usage and message on stderr.
        exc.parser.print_usage(sys.stderr)
        print(f"{exc.parser.prog}: error: {exc.message}", file=sys.stderr)
        return FAILURE
    except SystemExit as exc:
        # --help and --version print and exit with 0.
        return int(exc.code or 0)
    as_json = getattr(args, "json", False)
    try:
        code, result = args.handler(args)
        report = Report(ok=code == OK, command=args.command, result=result, error=None)
    except (HypothesisNotMet, CertificatePreconditionError) as exc:
        report = Report(ok=False, command=args.command, result=None, error=str(exc))
        code = MATH_NO
    except (DressRingError, ValueError) as exc:
        report = Report(ok=False, command=args.command, result=None, error=str(exc))
        code = FAILURE
    except RecursionError:
        report = Report(ok=False, command=args.command, result=None,
                        error="expression too deeply nested")
        code = FAILURE
    except (OverflowError, MemoryError):
        report = Report(ok=False, command=args.command, result=None,
                        error="value too large to build")
        code = FAILURE
    _emit(report, as_json, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
