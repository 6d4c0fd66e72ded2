"""Checks on the library source itself."""

import ast
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dressring"


def test_no_assert_statements():
    # Certificate checks must raise typed errors: python -O removes asserts.
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    found = [f"{path.name}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def _references(name: str) -> list[tuple[str, str]]:
    """(file, enclosing top-level def or "<module>") of every use of name in the source."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            owner = getattr(top, "name", "<module>")
            found += [(path.name, owner) for node in ast.walk(top)
                      if isinstance(node, ast.Name) and node.id == name
                      or isinstance(node, ast.Attribute) and node.attr == name
                      or isinstance(node, ast.alias) and name in (node.name, node.asname)]
    return found


def test_one_remainder_sequence_loop():
    # The Sturm and Tarski chains need real signed remainders; a gcd needs
    # them only when its evaluation points all fail.  No other caller may
    # grow a second remainder loop around them.
    found = _references("_signed_remainders")
    assert [ref for ref in found if ref[0] != "realroots.py"] == [("polynomials.py", "_gcd_cofactors")]
    assert ("realroots.py", "<module>") in found and len(found) > 2


def test_one_exact_division_loop():
    # Only a remainder needs pseudo-division: every exact quotient (the
    # gcd's cofactors, a quotient by X - r, a squarefree part) comes from _quotient,
    # and the linear branch of the gcd divides rather than evaluating.
    assert set(_references("_pdiv")) == {("polynomials.py", "_signed_remainders"),
                                         ("polynomials.py", "divrem")}
    assert ("polynomials.py", "_gcd_cofactors") not in _references("_horner")
    takers = {ref for ref in _references("_quotient") if ref[1] not in ("<module>", "_quotient")}
    assert takers == {("polynomials.py", "_cofactor"), ("realroots.py", "_sturm_data")}


def test_one_sum_over_a_common_denominator():
    # Polynomial addition and the parser's sums add numerator lists over
    # the lcm of their denominators by one kernel, in place; a second copy
    # of that loop would have to live somewhere else.
    takers = {ref for ref in _references("_add_into") if ref[1] not in ("<module>", "_add_into")}
    assert takers == {("polynomials.py", "Polynomial"), ("parsing.py", "_Parser")}
    parsing = ast.parse((SRC / "parsing.py").read_text())
    assert "_add_term" not in {getattr(top, "name", None) for top in parsing.body}


# (file, top-level def) of every caller that needs a gcd's cofactors.
COFACTOR_CALLERS = {
    ("polynomials.py", "RationalFunction"), ("polynomials.py", "squarefree_part"),
    ("polynomials.py", "squarefree_decomposition"),
    ("dress.py", "over_common_denominator"), ("ideals.py", "_numerator_data"),
    ("idempotent.py", "_factor_row"), ("idempotent.py", "factor_small"),
    ("idempotent.py", "_factor_quadratics_sharing_root"),
}


def test_cofactors_come_from_the_gcd():
    # The gcd's own division check yields a/g and b/g, so no caller divides
    # by a gcd again.  _factor_quadratics_sharing_root is handed its
    # cofactors; every other caller takes them from _gcd_cofactors.
    assert not COFACTOR_CALLERS & set(_references("_cofactor"))
    takers = set(_references("_gcd_cofactors"))
    assert COFACTOR_CALLERS - takers == {("idempotent.py", "_factor_quadratics_sharing_root")}


def test_two_sign_queries_in_the_factor_pipeline():
    # A row asks its own sign pattern and hands it to the certificate; only
    # the public certificate asks one itself.  A third query in between would
    # repeat the row's work.
    found = [ref for ref in _references("sign_at_roots") if ref[0] == "idempotent.py"]
    assert set(found) == {("idempotent.py", "<module>"), ("idempotent.py", "_factor_row"),
                          ("idempotent.py", "positivity_certificate")}


def test_certificate_errors_only_where_results_are_returned():
    # A factorization is checked once, by _verified, where it is returned;
    # the positivity certificate and the stable-range witness check their
    # own results.  A stage that re-checks part of the same facts would
    # have to raise CertificateError somewhere else.
    found = [ref for ref in _references("CertificateError") if ref[0] == "idempotent.py"]
    assert set(found) == {("idempotent.py", name) for name in (
        "<module>", "_verified", "positivity_certificate", "stable_range_witness")}
    assert ("ideals.py", "_numerator_data") not in _references("CertificateError")


def test_no_change_to_the_int_str_digit_limit():
    # parsing reads and prints numbers of any length in pieces, so nothing
    # needs to change Python's interpreter-wide int/str digit limit.
    assert [path.name for path in SRC.glob("*.py") if "int_max_str" in path.read_text()] == []


def test_factor_entries_take_one_reduction_path():
    # Every nonzero entry of a factor is reduced by RationalFunction.make;
    # a gcd of its own in idempotent.py would classify entries beside it.
    found = _references("poly_gcd")
    assert found and not [ref for ref in found if ref[0] == "idempotent.py"]


def test_one_report_renderer():
    # Handlers return library values and cli._text prints every one of them,
    # so no handler formats a matrix, a rational function or a Fraction of
    # its own.  The one other Fraction is laurent-member's ORDER message.
    for name in ("format_matrix", "format_rational_function"):
        assert [ref for ref in _references(name) if ref[0] == "cli.py"] == []
    uses = sorted(ref for ref in _references("format_fraction") if ref[0] == "cli.py")
    assert uses == [("cli.py", "<module>"), ("cli.py", "_cmd_laurent_member"), ("cli.py", "_text")]


def test_value_types_are_slotted():
    # Every value class is a frozen, slotted dataclass.  A hand-written
    # __init__ stores each field through its slot; it must take the fields'
    # names, order and defaults, and store every one of them where it belongs,
    # so a field added later cannot be skipped.
    direct, decorated = [], 0
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"dressring.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            calls = [deco for deco in getattr(node, "decorator_list", ())
                     if "dataclass" in ast.unparse(deco)]
            decorated += len(calls)
            for deco in calls:
                assert isinstance(deco, ast.Call), f"{path.name}:{deco.lineno}"
                flags = {kw.arg: ast.literal_eval(kw.value) for kw in deco.keywords}
                assert flags == {"frozen": True, "slots": True}, f"{path.name}:{deco.lineno}"
            if calls and any(isinstance(item, ast.FunctionDef) and item.name == "__init__"
                             for item in node.body):
                direct.append(getattr(module, node.name))
    assert decorated >= 15 and {cls.__name__ for cls in direct} >= {
        "Polynomial", "RationalFunction", "Mat2", "PrincipalityReport"}
    for cls in direct:
        fields = dataclasses.fields(cls)
        params = list(inspect.signature(cls.__init__).parameters.values())[1:]
        assert [(p.name, p.default, p.kind) for p in params] == [
            (f.name, inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default,
             inspect.Parameter.POSITIONAL_OR_KEYWORD) for f in fields]
        sentinels = [object() for _ in fields]
        obj = cls(*sentinels)
        assert [getattr(obj, f.name) for f in fields] == sentinels


def test_factoring_tables_are_built_on_first_use():
    # The trial-division product and the stage tables of p-1 and ECM cost time
    # that an import would add to every CLI start, so a fresh interpreter that
    # only imports numberrings has none of them.
    code = ("import dressring.numberrings as m; "
            "print(m._trial_table.cache_info().currsize, m._stage_tables.cache_info().currsize)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["0", "0"]


def test_factoring_draws_no_random_numbers():
    # factorize's limit is the fixed ECM schedule, with curves sigma = 6, 7, ...,
    # so whether an integer factors or raises depends on the integer alone.
    tree = ast.parse((SRC / "numberrings.py").read_text())
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "math" in modules and "random" not in modules
