"""Traced run: wrap the public functions of each layer at run time and record spans.

The program is not changed.  Each target function is replaced by a wrapper in
every ``dressring`` module namespace that bound it (``from .x import f`` makes
a second binding), and methods are replaced on the class itself, aliases such
as ``__rmul__ = __mul__`` included.  Spans (name, start, end, parent) are kept
in flat arrays in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

# (module, qualified name) of every function the per-layer metrics cover.
TARGETS = (
    ("polynomials", "Polynomial.__mul__"),
    ("polynomials", "divrem"),
    ("polynomials", "poly_gcd"),
    ("polynomials", "poly_lcm"),
    ("polynomials", "RationalFunction.make"),
    ("realroots", "sturm_count"),
    ("realroots", "isolate_real_roots"),
    ("realroots", "sign_at_roots"),
    ("realroots", "is_gamma"),
    ("dress", "membership_failure"),
    ("dress", "is_member"),
    ("ideals", "principal_generator"),
    ("ideals", "ideal_square"),
    ("ideals", "ideal_inverse"),
    ("idempotent", "Mat2.__mul__"),
    ("idempotent", "verify_factorization"),
    ("idempotent", "positivity_certificate"),
    ("idempotent", "factor_row_matrix"),
    ("idempotent", "factor_small"),
    ("idempotent", "swap_factorization"),
    ("idempotent", "conjugate_factorization"),
    ("numberrings", "factorize"),
    ("numberrings", "zs_member"),
    ("numberrings", "zs_gcd"),
    ("parsing", "parse_scalar"),
    ("parsing", "parse_matrix"),
    ("parsing", "format_rational_function"),
    ("parsing", "format_matrix"),
    ("cli", "build_parser"),
    ("cli", "main"),
)

# Entry points whose outermost successful return hands a factorization to the caller.
_FACTORIZATION_ENTRIES = ("idempotent.factor_row_matrix", "idempotent.factor_small")


def per_layer_names() -> list:
    """Every per-layer metric name, in report order, with its unit."""
    out = []
    for module, qual in TARGETS:
        out += [(f"{module}.{qual}.calls", "count"), (f"{module}.{qual}.self_s", "s")]
    out += [
        ("realroots.is_gamma.cache_hit_ratio", "ratio"),
        ("idempotent.verify_factorization.per_factorization", "ratio"),
        ("cli.build_parser.per_op", "ratio"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.unattributed_s", "s"),
    ]
    return out


class Tracer:
    def __init__(self):
        self.names: list = [f"{m}.{q}" for m, q in TARGETS]
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = [-1]
        self.gamma_reach = 0  # is_gamma calls that consult the cache
        self.factorizations = 0  # factorizations returned to the caller
        self._entry_depth = 0
        self._restore: list = []

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, nid: int, fn):
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter_ns
        label = self.names[nid]
        counts_gamma = label == "realroots.is_gamma"
        entry = label in _FACTORIZATION_ENTRIES
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counts_gamma:
                coeffs = args[0].coeffs
                if len(coeffs) >= 3 and len(coeffs) % 2 == 1:
                    tracer.gamma_reach += 1
            if entry:
                tracer._entry_depth += 1
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if entry:
                    tracer._entry_depth -= 1
            if entry and tracer._entry_depth == 0:
                tracer.factorizations += 1
            return result

        return wrapper

    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "dressring" or name.startswith("dressring.")]
        for nid, (module_name, qual) in enumerate(TARGETS):
            module = sys.modules.get(f"dressring.{module_name}")
            if module is None:
                continue
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(module, cls_name, None)
                raw = cls.__dict__.get(meth) if cls is not None else None
                if raw is None:
                    continue
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapper = self._wrap(nid, fn)
                for attr, value in list(cls.__dict__.items()):
                    if value is fn:
                        self._replace(cls, attr, wrapper)
                    elif isinstance(value, staticmethod) and value.__func__ is fn:
                        self._replace(cls, attr, staticmethod(wrapper))
                continue
            fn = getattr(module, qual, None)
            if fn is None:
                continue
            wrapper = self._wrap(nid, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._replace(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    # -- results ----------------------------------------------------------------

    def summarize(self) -> dict:
        """Per-name call counts and self time (ns), and the total of root spans."""
        n = len(self.span_start)
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0] * n
        root_ns = 0
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += dur[i]
            else:
                root_ns += dur[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        min_self = 0
        for i, nid in enumerate(self.span_name):
            own = dur[i] - child[i]
            min_self = min(min_self, own)
            calls[nid] += 1
            self_ns[nid] += own
        return {"calls": calls, "self_ns": self_ns, "root_ns": root_ns,
                "spans": n, "min_self_ns": min_self}

    def write(self, path: Path) -> None:
        """Spans as a JSON header line followed by the four raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "arrays": [["name", self.span_name.typecode], ["parent", self.span_parent.typecode],
                       ["start_ns", "q"], ["end_ns", "q"]],
            "itemsizes": [a.itemsize for a in (self.span_name, self.span_parent,
                                               self.span_start, self.span_end)],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
